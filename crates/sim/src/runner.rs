//! Convenience runners: execute a protocol under the whole scheduler battery,
//! or under one position of it.

use anet_graph::Network;

use crate::engine::{run, ExecutionConfig, RunResult};
use crate::scheduler::standard_battery;
use crate::AnonymousProtocol;

/// The result of one run together with the name of the scheduler that produced it.
#[derive(Debug, Clone)]
pub struct NamedRun<S, M> {
    /// Scheduler name (`"fifo"`, `"lifo"`, `"random"`, …).
    pub scheduler: &'static str,
    /// The run result.
    pub result: RunResult<S, M>,
}

/// Runs `protocol` once under every scheduler in the standard battery
/// (FIFO, LIFO, terminal-last, terminal-first and `random_count` seeded random
/// orders) and returns all results.
///
/// Correctness statements in the paper are universally quantified over delivery
/// orders; tests use this helper to approximate that quantifier.
pub fn run_under_battery<P: AnonymousProtocol>(
    network: &Network,
    protocol: &P,
    config: ExecutionConfig,
    seed: u64,
    random_count: usize,
) -> Vec<NamedRun<P::State, P::Message>> {
    standard_battery(seed, random_count)
        .into_iter()
        .map(|mut scheduler| NamedRun {
            scheduler: scheduler.name(),
            result: run(network, protocol, scheduler.as_mut(), config),
        })
        .collect()
}

/// Number of schedulers in [`standard_battery`] for a given `random_count`: the
/// deterministic policies plus the seeded random orders.
///
/// Shard-aware planners use this (with
/// [`crate::scheduler::battery_scheduler_name`]) to enumerate and label battery
/// positions without constructing scheduler values.
pub fn battery_size(random_count: usize) -> usize {
    crate::scheduler::DETERMINISTIC_BATTERY_NAMES.len() + random_count
}

/// Runs exactly one cell of a battery grid: `protocol` on `network` under
/// scheduler `battery_index` of `standard_battery(seed, random_count)`.
///
/// Each call builds the battery fresh and uses one scheduler from it, which is
/// identical to the per-cell semantics of [`run_under_battery`] (schedulers are
/// freshly constructed per battery there too, and each is used for exactly one
/// run), so a cell run in any process at any time gives bit-identical results.
///
/// # Panics
///
/// Panics if `battery_index >= battery_size(random_count)`.
pub fn run_battery_cell<P: AnonymousProtocol>(
    network: &Network,
    protocol: &P,
    config: ExecutionConfig,
    seed: u64,
    random_count: usize,
    battery_index: usize,
) -> NamedRun<P::State, P::Message> {
    let mut battery = standard_battery(seed, random_count);
    assert!(
        battery_index < battery.len(),
        "battery index {battery_index} out of range for battery of {}",
        battery.len()
    );
    let scheduler = &mut battery[battery_index];
    NamedRun {
        scheduler: scheduler.name(),
        result: run(network, protocol, scheduler.as_mut(), config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeContext;
    use anet_graph::generators::chain_gn;

    /// Minimal protocol: forward once, terminal accepts on first receipt.
    #[derive(Debug)]
    struct Ping;

    impl AnonymousProtocol for Ping {
        type State = u64;
        type Message = ();

        fn name(&self) -> &'static str {
            "ping"
        }
        fn initial_state(&self, _ctx: &NodeContext) -> u64 {
            0
        }
        fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, ())> {
            vec![(0, ())]
        }
        fn on_receive(
            &self,
            ctx: &NodeContext,
            state: &mut u64,
            _in_port: usize,
            _message: &(),
        ) -> Vec<(usize, ())> {
            *state += 1;
            if *state == 1 {
                (0..ctx.out_degree).map(|p| (p, ())).collect()
            } else {
                Vec::new()
            }
        }
        fn should_terminate(&self, terminal_state: &u64) -> bool {
            *terminal_state >= 1
        }
    }

    #[test]
    fn battery_runs_every_scheduler() {
        let net = chain_gn(4).unwrap();
        let runs = run_under_battery(&net, &Ping, ExecutionConfig::default(), 7, 3);
        assert_eq!(runs.len(), 7);
        for named in &runs {
            assert!(
                named.result.outcome.terminated(),
                "scheduler {}",
                named.scheduler
            );
        }
        // The adversarial orders genuinely differ: under terminal-last the terminal
        // accepts late, under terminal-first it accepts after a single delivery of a
        // terminal-bound message.
        let first = runs
            .iter()
            .find(|r| r.scheduler == "terminal-first")
            .unwrap();
        let last = runs
            .iter()
            .find(|r| r.scheduler == "terminal-last")
            .unwrap();
        assert!(first.result.deliveries_at_termination <= last.result.deliveries_at_termination);
    }

    #[test]
    fn battery_size_counts_the_standard_battery() {
        assert_eq!(battery_size(3), standard_battery(0, 3).len());
        assert_eq!(battery_size(0), standard_battery(9, 0).len());
    }

    #[test]
    fn cell_runs_match_the_battery_cell_for_cell() {
        let net = chain_gn(5).unwrap();
        let battery = run_under_battery(&net, &Ping, ExecutionConfig::default(), 11, 2);
        for (k, expected) in battery.iter().enumerate() {
            let cell = run_battery_cell(&net, &Ping, ExecutionConfig::default(), 11, 2, k);
            assert_eq!(cell.scheduler, expected.scheduler);
            assert_eq!(cell.result.outcome, expected.result.outcome);
            assert_eq!(cell.result.metrics, expected.result.metrics);
            assert_eq!(cell.result.states, expected.result.states);
            assert_eq!(
                cell.result.deliveries_at_termination,
                expected.result.deliveries_at_termination
            );
        }
    }

    #[test]
    #[should_panic(expected = "battery index")]
    fn cell_with_out_of_range_battery_index_panics() {
        let net = chain_gn(3).unwrap();
        let _ = run_battery_cell(&net, &Ping, ExecutionConfig::default(), 0, 1, 5);
    }
}
