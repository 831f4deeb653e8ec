//! Canonical JSONL run records.
//!
//! Every completed sweep unit is serialised as exactly one JSON line with a
//! fixed field order and spacing (the same `"key": value, ` style as the
//! committed `BENCH_*.json` baselines). Because the line is a pure function
//! of the unit's deterministic run, byte-comparing merged files is a sound
//! equivalence check across shard counts and process boundaries.
//!
//! [`RunRecord::parse_line`] is the checkpoint validator: it accepts a line iff
//! it parses into a record whose canonical re-serialisation is byte-identical
//! to the input. A line truncated by a killed shard therefore never survives a
//! resume — it either fails to parse or round-trips differently.
//!
//! String fields are emitted **raw**, unescaped, guarded by a `jsonl_safe`
//! assertion: every name the sweep produces (protocol, topology, scheduler,
//! outcome) is generated from enums and integers and never needs JSON
//! escaping, and the guard panics — loudly, at write time — on the first name
//! that would. This keeps the writer
//! and the parser exact inverses; silently escaping on write while the parser
//! (and its `", "` field splitter) only accepts the unescaped form would
//! instead produce files the system itself could not re-read.

/// The distilled result of one sweep unit, one JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Manifest position (the merge key).
    pub index: usize,
    /// Protocol name.
    pub protocol: String,
    /// Topology instance name.
    pub topology: String,
    /// Scheduler display name.
    pub scheduler: String,
    /// Battery position.
    pub battery_index: usize,
    /// Battery seed.
    pub seed: u64,
    /// Execution scenario name (`pristine`, `faults/...` or `corrupt/...`).
    pub scenario: String,
    /// How the run ended: `terminated`, `quiescent`, `starved` (quiescent
    /// with adversary-destroyed messages) or `budget-exhausted`.
    pub outcome: String,
    /// Protocol-specific success check (e.g. exact topology reconstruction).
    pub ok: bool,
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries at first terminal acceptance, if the run terminated.
    pub accepted_at: Option<u64>,
    /// Total wire bits.
    pub total_bits: u64,
    /// Largest single message, bits.
    pub max_msg_bits: u64,
    /// Largest per-edge bit total (required bandwidth), bits.
    pub max_edge_bits: u64,
    /// Messages destroyed by the fault adversary's drops.
    pub dropped: u64,
    /// Adversary-injected duplicate deliveries.
    pub duplicated: u64,
    /// Messages consumed by crashed vertices.
    pub crashed: u64,
    /// [`anet_sim::trace::Trace::digest`] of the run, in fixed-width hex.
    pub trace_digest: u64,
}

/// Asserts `s` can be embedded in a canonical record verbatim: no characters
/// that JSON would escape and none of the `", "` / `": "` separator sequences
/// the parser splits fields on.
///
/// # Panics
///
/// Panics when the name would need escaping — a bug in whatever generated it,
/// caught at write time rather than surfacing as an unreadable checkpoint.
fn jsonl_safe(s: &str) -> &str {
    assert!(
        !s.contains(['"', '\\', ' ']) && !s.chars().any(|c| (c as u32) < 0x20),
        "sweep name {s:?} is not JSONL-safe (quote, backslash, space or control character)"
    );
    s
}

impl RunRecord {
    /// The canonical JSONL line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if a string field is not JSONL-safe (see the [module
    /// docs](self)).
    pub fn to_jsonl_line(&self) -> String {
        let accepted = match self.accepted_at {
            Some(n) => n.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"i\": {}, \"protocol\": \"{}\", \"topology\": \"{}\", \"sched\": \"{}\", \"k\": {}, \"seed\": {}, \"scenario\": \"{}\", \"outcome\": \"{}\", \"ok\": {}, \"sent\": {}, \"delivered\": {}, \"accepted_at\": {}, \"total_bits\": {}, \"max_msg_bits\": {}, \"max_edge_bits\": {}, \"dropped\": {}, \"duplicated\": {}, \"crashed\": {}, \"trace\": \"{:016x}\"}}",
            self.index,
            jsonl_safe(&self.protocol),
            jsonl_safe(&self.topology),
            jsonl_safe(&self.scheduler),
            self.battery_index,
            self.seed,
            jsonl_safe(&self.scenario),
            jsonl_safe(&self.outcome),
            self.ok,
            self.sent,
            self.delivered,
            accepted,
            self.total_bits,
            self.max_msg_bits,
            self.max_edge_bits,
            self.dropped,
            self.duplicated,
            self.crashed,
            self.trace_digest,
        )
    }

    /// Parses a canonical JSONL line, returning `None` for anything that is
    /// not byte-for-byte canonical (the checkpoint completeness test).
    pub fn parse_line(line: &str) -> Option<RunRecord> {
        let body = line.strip_prefix('{')?.strip_suffix('}')?;
        let mut fields = std::collections::HashMap::new();
        for field in body.split(", ") {
            let (key, value) = field.split_once(": ")?;
            let key = key.strip_prefix('"')?.strip_suffix('"')?;
            fields.insert(key, value);
        }
        let string = |key: &str| -> Option<String> {
            let v = fields.get(key)?;
            let inner = v.strip_prefix('"')?.strip_suffix('"')?;
            // Canonical strings never contain escapes or separators that the
            // splitter above would mangle; reject anything suspicious.
            if inner.contains(['\\', '"']) {
                return None;
            }
            Some(inner.to_owned())
        };
        let int = |key: &str| -> Option<u64> { fields.get(key)?.parse().ok() };
        let record = RunRecord {
            index: usize::try_from(int("i")?).ok()?,
            protocol: string("protocol")?,
            topology: string("topology")?,
            scheduler: string("sched")?,
            battery_index: usize::try_from(int("k")?).ok()?,
            seed: int("seed")?,
            scenario: string("scenario")?,
            outcome: string("outcome")?,
            ok: match *fields.get("ok")? {
                "true" => true,
                "false" => false,
                _ => return None,
            },
            sent: int("sent")?,
            delivered: int("delivered")?,
            accepted_at: match *fields.get("accepted_at")? {
                "null" => None,
                v => Some(v.parse().ok()?),
            },
            total_bits: int("total_bits")?,
            max_msg_bits: int("max_msg_bits")?,
            max_edge_bits: int("max_edge_bits")?,
            dropped: int("dropped")?,
            duplicated: int("duplicated")?,
            crashed: int("crashed")?,
            trace_digest: {
                let hex = string("trace")?;
                if hex.len() != 16 {
                    return None;
                }
                u64::from_str_radix(&hex, 16).ok()?
            },
        };
        // Round-trip gate: only exactly canonical lines are valid checkpoints.
        (record.to_jsonl_line() == line).then_some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            index: 12,
            protocol: "mapping".to_owned(),
            topology: "chain-gn/6".to_owned(),
            scheduler: "random#1".to_owned(),
            battery_index: 5,
            seed: 42,
            scenario: "pristine".to_owned(),
            outcome: "terminated".to_owned(),
            ok: true,
            sent: 40,
            delivered: 34,
            accepted_at: Some(34),
            total_bits: 1234,
            max_msg_bits: 99,
            max_edge_bits: 456,
            dropped: 0,
            duplicated: 0,
            crashed: 0,
            trace_digest: 0x00ab12cd34ef5678,
        }
    }

    #[test]
    fn record_round_trips() {
        let r = sample();
        let line = r.to_jsonl_line();
        assert_eq!(RunRecord::parse_line(&line), Some(r));
    }

    #[test]
    fn null_accepted_at_round_trips() {
        let r = RunRecord {
            accepted_at: None,
            outcome: "quiescent".to_owned(),
            ok: false,
            ..sample()
        };
        let line = r.to_jsonl_line();
        assert!(line.contains("\"accepted_at\": null"));
        assert_eq!(RunRecord::parse_line(&line), Some(r));
    }

    #[test]
    fn fault_scenario_records_round_trip() {
        let r = RunRecord {
            scenario: "faults/d20u10r2s6".to_owned(),
            outcome: "starved".to_owned(),
            ok: false,
            accepted_at: None,
            dropped: 9,
            duplicated: 3,
            crashed: 1,
            ..sample()
        };
        let line = r.to_jsonl_line();
        assert!(line.contains("\"scenario\": \"faults/d20u10r2s6\""));
        assert!(line.contains("\"dropped\": 9, \"duplicated\": 3, \"crashed\": 1"));
        assert_eq!(RunRecord::parse_line(&line), Some(r));
    }

    #[test]
    fn truncated_and_mangled_lines_are_rejected() {
        let line = sample().to_jsonl_line();
        for cut in 1..line.len() {
            assert_eq!(
                RunRecord::parse_line(&line[..cut]),
                None,
                "prefix of length {cut} must not validate"
            );
        }
        assert_eq!(RunRecord::parse_line(""), None);
        assert_eq!(RunRecord::parse_line("not json"), None);
        assert_eq!(RunRecord::parse_line(&format!(" {line}")), None);
        assert_eq!(RunRecord::parse_line(&line.replace("true", "maybe")), None);
        // Non-canonical spacing fails the round-trip gate.
        assert_eq!(RunRecord::parse_line(&line.replace(", ", ",")), None);
    }

    #[test]
    #[should_panic(expected = "not JSONL-safe")]
    fn unsafe_names_panic_at_write_time() {
        let r = RunRecord {
            protocol: "evil\"name".to_owned(),
            ..sample()
        };
        let _ = r.to_jsonl_line();
    }
}
