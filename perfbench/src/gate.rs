//! The output gate: every run record is checked, and each mismatch counts as
//! one failed operation.
//!
//! On the default seed every pass's merged JSONL must match the pinned FNV-1a
//! and per-record digests. On any other seed the first pass becomes the
//! reference that later passes must reproduce. On every seed each record must
//! satisfy the protocols' own predicates: a pristine unit terminates with
//! `ok: true`, and an adversarial record is consistent (a successful run
//! terminated; a starved one lost messages).

use anet_sweep::manifest::fnv1a;
use anet_sweep::RunRecord;

/// The 32-bit digest of one canonical record line (FNV-1a, folded).
pub fn record_digest(line: &str) -> u32 {
    let h = fnv1a(line.as_bytes());
    (h ^ (h >> 32)) as u32
}

/// The pinned output of one sweep: the merged JSONL's FNV-1a and one digest
/// per record line, in manifest order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPin {
    /// FNV-1a of the whole merged JSONL.
    pub merged_fnv: u64,
    /// [`record_digest`] of each line.
    pub records: Vec<u32>,
}

impl SweepPin {
    /// The pin of a merged JSONL text.
    pub fn of_merged(merged: &str) -> SweepPin {
        SweepPin {
            merged_fnv: fnv1a(merged.as_bytes()),
            records: merged.lines().map(record_digest).collect(),
        }
    }

    /// The pinned-file text.
    pub fn to_text(&self, workload: &str, seed: u64) -> String {
        let mut text = format!(
            "# pinned outputs of {workload}, workload seed {seed}\nmerged {:016x} {}\n",
            self.merged_fnv,
            self.records.len()
        );
        for digest in &self.records {
            text.push_str(&format!("{digest:08x}\n"));
        }
        text
    }

    /// Parses [`SweepPin::to_text`]; `None` for anything else, an empty
    /// file included.
    pub fn parse(text: &str) -> Option<SweepPin> {
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let header: Vec<&str> = lines.next()?.split_whitespace().collect();
        let ["merged", fnv, count] = header.as_slice() else {
            return None;
        };
        let merged_fnv = u64::from_str_radix(fnv, 16).ok()?;
        let count: usize = count.parse().ok()?;
        let records = lines
            .map(|l| u32::from_str_radix(l, 16).ok())
            .collect::<Option<Vec<u32>>>()?;
        (records.len() == count).then_some(SweepPin {
            merged_fnv,
            records,
        })
    }
}

/// Whether a record breaks the protocols' own predicates.
fn breaks_predicates(record: &RunRecord) -> bool {
    let lost = record.dropped + record.crashed;
    let pristine_ok =
        record.scenario != "pristine" || (record.outcome == "terminated" && record.ok);
    let consistent =
        (!record.ok || record.outcome == "terminated") && (record.outcome != "starved" || lost > 0);
    !(pristine_ok && consistent)
}

/// Checks one pass's merged JSONL against `reference`: returns the records
/// attempted and the records failed. A record fails when its line is missing,
/// extra, differs from the reference digest, or breaks the predicates.
pub fn check_sweep_pass(merged: &str, reference: &SweepPin) -> (u64, u64) {
    let lines: Vec<&str> = merged.lines().collect();
    let attempted = lines.len().max(reference.records.len());
    let mut failed = 0u64;
    for i in 0..attempted {
        let good = match (lines.get(i), reference.records.get(i)) {
            (Some(line), Some(&digest)) => {
                record_digest(line) == digest
                    && RunRecord::parse_line(line).is_some_and(|r| !breaks_predicates(&r))
            }
            _ => false,
        };
        failed += u64::from(!good);
    }
    if failed == 0 && fnv1a(merged.as_bytes()) != reference.merged_fnv {
        failed = 1;
    }
    (attempted as u64, failed)
}
