//! Per-rank virtual-time trace capture of the fig. 5 relay schedule.
//!
//! Runs the relay conversion round-trip (density → slabs → potential)
//! on the simulated K-like network with span recording on, and exports
//! the capture as Chrome-trace JSON on the *virtual* clock: one trace
//! "process" per simulated rank, spans ordered by each rank's mpisim
//! vtime. Load the file in Perfetto / `chrome://tracing` to see the
//! relay's two-hop schedule laid out against the network model.

use greem_obs::export::{chrome_trace, validate_chrome_trace, Clock, TraceSummary};
use greem_obs::trace::capture;
use greem_obs::Event;
use greem_pm::relay::{relay_density_to_slabs, relay_slabs_to_local, RelayComms, RelayConfig};
use mpisim::{NetModel, World};

use crate::experiments::fig5::stripe_local;

/// Shape of the traced relay run.
#[derive(Debug, Clone, Copy)]
pub struct TraceRun {
    pub p: usize,
    pub nf: usize,
    pub n_mesh: usize,
    pub groups: usize,
}

impl TraceRun {
    /// The `--small` shape or the standard one.
    pub fn of(small: bool) -> Self {
        if small {
            Self::small()
        } else {
            Self::standard()
        }
    }

    pub fn small() -> Self {
        TraceRun {
            p: 8,
            nf: 2,
            n_mesh: 16,
            groups: 4,
        }
    }

    pub fn standard() -> Self {
        TraceRun {
            p: 24,
            nf: 4,
            n_mesh: 32,
            groups: 6,
        }
    }
}

/// Run the relay round-trip once with recording on; returns the raw
/// events of the capture window.
pub fn capture_relay_events(run: TraceRun) -> Vec<Event> {
    let TraceRun {
        p,
        nf,
        n_mesh,
        groups,
    } = run;
    assert!(
        p / groups >= nf && p.is_multiple_of(groups),
        "invalid relay shape: p={p} nf={nf} groups={groups}"
    );
    let (_, events) = capture(|| {
        World::new(p)
            .with_net(NetModel::k_computer())
            .run(move |ctx, world| {
                let me = world.rank();
                let comms = RelayComms::build(
                    ctx,
                    world,
                    RelayConfig {
                        nf,
                        n_groups: groups,
                    },
                );
                let local = stripe_local(me, p, n_mesh);
                let want = local.bx.grow(2);
                let slab = relay_density_to_slabs(ctx, &comms, &local, n_mesh);
                let _ = relay_slabs_to_local(ctx, &comms, slab, n_mesh, want);
            });
    });
    events
}

/// Capture the relay run and export it as virtual-clock Chrome-trace
/// JSON (one pid per rank).
pub fn capture_relay_trace(run: TraceRun) -> String {
    chrome_trace(&capture_relay_events(run), Clock::Virtual)
}

/// Capture the relay run and export it as folded stacks (flamegraph.pl
/// input, self-time in virtual µs) — the `harness trace --agg` payload.
/// Returns the folded text plus the line count.
pub fn relay_folded_stacks(run: TraceRun) -> Result<(String, usize), String> {
    let events = capture_relay_events(run);
    let folded = greem_obs::export::folded_stacks(&events, Clock::Virtual);
    if folded.is_empty() {
        return Err("relay capture folded to zero stacks".into());
    }
    let lines = folded.lines().count();
    Ok((folded, lines))
}

/// Capture, export, and schema-validate in one go — the `harness trace`
/// entry point. Returns the JSON plus the validator's summary.
pub fn relay_trace_validated(run: TraceRun) -> Result<(String, TraceSummary), String> {
    let json = capture_relay_trace(run);
    let summary = validate_chrome_trace(&json)?;
    if summary.processes != run.p {
        return Err(format!(
            "expected one trace process per rank ({}), got {}",
            run.p, summary.processes
        ));
    }
    if summary.comm_spans == 0 {
        return Err("relay trace carries no comm spans".into());
    }
    Ok((json, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_relay_trace_validates() {
        let run = TraceRun::small();
        let (json, summary) = relay_trace_validated(run).expect("valid trace");
        assert!(json.contains("traceEvents"));
        assert_eq!(summary.processes, run.p);
        assert!(summary.spans > 0);
    }

    #[test]
    fn small_relay_folds_to_stacks() {
        let (folded, lines) = relay_folded_stacks(TraceRun::small()).expect("folded stacks");
        assert!(lines > 0);
        // Every line is `rank N;stack;frames <µs>` — one root frame per
        // simulated rank, integer self-time.
        for line in folded.lines() {
            let (stack, us) = line.rsplit_once(' ').expect("stack + self-time");
            assert!(stack.starts_with("rank "), "bad root frame: {line}");
            us.parse::<u64>().expect("integer µs");
        }
    }
}
