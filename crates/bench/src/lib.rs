//! # bench — the figure catalog and its generator
//!
//! [`catalog`] names every experiment group (the paper's eight figures
//! plus the extensions); [`generate`] / [`generate_groups`] run a
//! selection and return [`netbench::Figure`]s that report *simulated*
//! time. The `figures` binary
//! (`cargo run --release -p bench --bin figures -- [fig1 … fig8 | all]`)
//! prints them as paper-shaped text tables and, with `--json`, writes the
//! per-figure JSON files whose committed copies under `results/` pin the
//! simulator's output byte for byte.
//!
//! Host performance is not measured here: `benchmark/` (perfbench) is the
//! repository's only performance record.

#![forbid(unsafe_code)]

pub mod sketch;
pub mod tail;

use netbench::Figure;

/// The full experiment catalog: `(selector, generator)` pairs. Each
/// generator is self-contained (builds its own deterministic simulation),
/// which is what makes [`generate_parallel`] trivially safe.
type Generator = fn() -> Vec<Figure>;

/// Every named experiment, in presentation order.
pub fn catalog() -> Vec<(&'static str, Generator)> {
    vec![
        ("fig1", || {
            vec![
                netbench::userlevel::fig1_latency(),
                netbench::userlevel::fig1_bandwidth(),
            ]
        }),
        ("fig2", || {
            let mut v = Vec::new();
            for kind in [mpisim::FabricKind::Iwarp, mpisim::FabricKind::InfiniBand] {
                v.push(netbench::multiconn::fig2_latency(kind));
                v.push(netbench::multiconn::fig2_throughput(kind));
            }
            v
        }),
        ("fig3", || {
            vec![
                netbench::mpi_latency::fig3_latency(),
                netbench::mpi_latency::fig3_overhead(),
            ]
        }),
        ("fig4", || {
            [
                netbench::bandwidth::BwMode::Unidirectional,
                netbench::bandwidth::BwMode::Bidirectional,
                netbench::bandwidth::BwMode::BothWay,
            ]
            .into_iter()
            .map(netbench::bandwidth::fig4_bandwidth)
            .collect()
        }),
        ("fig5", || {
            let (g, os, or) = netbench::logp::fig5_logp();
            vec![g, os, or]
        }),
        ("fig6", || vec![netbench::reuse::fig6_buffer_reuse()]),
        ("fig7", || {
            mpisim::FabricKind::ALL
                .into_iter()
                .map(netbench::queues::fig7_unexpected)
                .collect()
        }),
        ("fig8", || {
            mpisim::FabricKind::ALL
                .into_iter()
                .map(netbench::queues::fig8_receive_queue)
                .collect()
        }),
        ("e9", || {
            let (ov, ip) = netbench::overlap::overlap_and_progress();
            vec![ov, ip]
        }),
        ("e10", || vec![netbench::hotspot::hotspot_figure(1024)]),
        (
            "e11",
            || vec![netbench::registration::registration_figure()],
        ),
        ("ablation", || {
            vec![
                netbench::ablation::iwarp_pipelining(128),
                netbench::ablation::ib_context_cache(128),
                netbench::ablation::mx_matching_location(),
            ]
        }),
        ("fig-loss", || {
            vec![
                netbench::loss::fig_loss_latency(),
                netbench::loss::fig_loss_bandwidth(),
            ]
        }),
        ("shard", || vec![netbench::cluster::fig_cluster_bandwidth()]),
        ("fig-tail", || {
            vec![tail::fig_tail_latency(), tail::fig_tail_knee()]
        }),
    ]
}

/// Parallelism to use when the caller doesn't pin a thread count: one
/// worker per available core, capped by the number of experiment groups.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One generated catalog group, the host wall-clock it took and what the
/// conformance oracles counted while it ran. The caller reports wall and
/// counts (the `figures` binary prints them to stderr); this library
/// writes nothing anywhere.
pub struct Group {
    pub id: &'static str,
    pub figures: Vec<Figure>,
    pub wall: std::time::Duration,
    pub oracles: simcheck::Summary,
}

/// Generate the groups selected by `which` ("all", a figure id prefix, or
/// the aliases "overlap"/"hotspot"/"registration"), in catalog order.
///
/// `threads == 1` runs everything on the calling thread. `n > 1` spreads
/// the groups over up to `n` OS threads — simulations are per-thread and
/// deterministic, so parallelism changes wall time, not results — claimed
/// from a shared counter so long groups don't serialize behind a static
/// partition. Each group runs whole on one thread, sharded runs included,
/// and takes that thread's oracle counts ([`simcheck::take`]) when it
/// ends: on the calling thread, the first group also takes whatever the
/// caller counted before. Workers run with the caller's default transfer
/// tier ([`simnet::tier::default_tier`]). `0` counts as `1`.
pub fn generate_groups(which: &str, threads: usize) -> Vec<Group> {
    let cap = threads.max(1);
    let which = resolve_alias(which);
    let selected: Vec<(&'static str, Generator)> = catalog()
        .into_iter()
        .filter(|(id, _)| which == "all" || id.starts_with(which))
        .collect();
    let run = |&(id, gen): &(&'static str, Generator)| {
        let t0 = std::time::Instant::now();
        let figures = gen();
        Group {
            id,
            figures,
            wall: t0.elapsed(),
            oracles: simcheck::take(),
        }
    };
    if cap == 1 {
        return selected.iter().map(run).collect();
    }
    let tier = simnet::tier::default_tier();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker = || {
        simnet::tier::set_default_tier(tier);
        let claim = || {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Some((i, run(selected.get(i)?)))
        };
        std::iter::from_fn(claim).collect::<Vec<_>>()
    };
    let mut groups = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cap.min(selected.len()))
            .map(|_| scope.spawn(worker))
            .collect();
        for w in workers {
            groups.extend(w.join().expect("worker panicked"));
        }
    });
    groups.sort_by_key(|&(i, _)| i);
    groups.into_iter().map(|(_, g)| g).collect()
}

fn figures_of(groups: Vec<Group>) -> Vec<Figure> {
    groups.into_iter().flat_map(|g| g.figures).collect()
}

/// The selected figures, generated sequentially on the calling thread.
pub fn generate(which: &str) -> Vec<Figure> {
    figures_of(generate_groups(which, 1))
}

/// The selected figures, generated across up to `threads` OS threads
/// ([`default_threads`] is one per core).
pub fn generate_parallel(which: &str, threads: usize) -> Vec<Figure> {
    figures_of(generate_groups(which, threads))
}

/// Whether `which` selects at least one catalog entry — lets callers
/// reject a typo'd selector before any (expensive) generation starts.
pub fn selector_matches(which: &str) -> bool {
    let which = resolve_alias(which);
    which == "all" || catalog().iter().any(|(id, _)| id.starts_with(which))
}

/// Map the human-friendly selector aliases onto catalog ids.
fn resolve_alias(which: &str) -> &str {
    match which {
        "overlap" => "e9",
        "hotspot" => "e10",
        "registration" => "e11",
        w => w,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn selector_matches_prefixes() {
        // e11 is the cheapest single-figure selector.
        let figs = super::generate("e11");
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].id, "e11-registration");
    }

    #[test]
    fn aliases_resolve() {
        let figs = super::generate("registration");
        assert_eq!(figs.len(), 1);
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_sequential() {
        // Each generator owns its simulation, so threading must not change
        // a single bit of any series.
        let seq = super::generate("e11");
        let par = super::generate_parallel("e11", super::default_threads());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    /// Each group carries the oracle counts of its own run, whichever
    /// thread ran it, and none are left in the caller's registry.
    #[test]
    fn groups_carry_their_own_oracle_counts_at_any_thread_count() {
        let counts = |threads| -> Vec<_> {
            let groups = super::generate_groups("e1", threads).into_iter();
            groups.map(|g| (g.id, g.oracles)).collect()
        };
        let serial = counts(1);
        assert_eq!(serial.len(), 2, "e10 and e11");
        assert!(serial.iter().all(|g| g.1.total_checks() > 0), "{serial:?}");
        assert_eq!(serial, counts(2));
        assert_eq!(simcheck::take().total_checks(), 0);
    }

    #[test]
    fn catalog_ids_are_unique_and_known() {
        let ids: Vec<&str> = super::catalog().iter().map(|(id, _)| *id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert!(ids.contains(&"fig1") && ids.contains(&"ablation"));
    }
}
