//! Regenerate the paper's figures as text tables (and optional JSON).
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig4 --json out/
//! cargo run --release -p bench --bin figures -- all --threads 4
//! cargo run --release -p bench --bin figures -- --selftest
//! ```
//!
//! Figure groups are generated **in parallel by default** (one worker per
//! core, capped at the group count): each generator owns a private
//! deterministic simulation, so threading changes wall time only — output
//! is bit-identical to a serial run (`tests/determinism.rs` locks this in
//! with an event-order digest). Flags:
//!
//! * `--threads N`   — cap the figure-group pool at `N` threads;
//!   `--threads 1` generates on the calling thread only (the serial run,
//!   for debugging or single-core profiling).
//! * `--json DIR`    — also write one `<figure-id>.json` per figure.
//! * `--charts`      — append ASCII charts to the tables.
//! * `--selftest`    — run a fixed executor micro-workload and report
//!   simulation throughput (events/second plus the `simnet::SimStats`
//!   counters) instead of generating figures.
//! * `--no-memo`     — force-disable the whole-transfer memo
//!   (`simnet::memo`) in every simulation this process creates. Output
//!   must be byte-identical to a memoized run; ci.sh pins both against
//!   the committed `results/`.
//!
//! Wall-clock per figure group goes to stderr; stdout carries only the
//! deterministic tables.

#![forbid(unsafe_code)]

/// Exit 2 with one line on stderr. Every usage error (flag, selector,
/// `--json` target) is raised before any figure runs.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut json_dir: Option<String> = None;
    let mut charts = false;
    let mut selftest = false;
    let mut threads: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(dir) => json_dir = Some(dir),
                None => usage_error("--json requires a directory"),
            },
            "--charts" => charts = true,
            "--selftest" => selftest = true,
            // The memo is an optimization, never a semantic switch: forcing
            // it off must reproduce the exact bytes (ci.sh pins a --no-memo
            // run against the committed results/).
            "--no-memo" => simnet::memo::set_default_enabled(false),
            "--threads" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--threads requires a positive integer"));
                threads = Some(n);
            }
            other => {
                if other.starts_with('-') {
                    usage_error(&format!("unknown flag {other:?}"));
                }
                which.push(other.to_string());
            }
        }
    }
    if selftest {
        run_selftest();
        return;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    // Reject typo'd selectors and an unusable --json target up front.
    for sel in &which {
        if !bench::selector_matches(sel) {
            usage_error(&format!("no figures match selector {sel:?}"));
        }
    }
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create --json directory {dir:?}: {e}"));
        }
    }
    let threads = threads.unwrap_or_else(bench::default_threads);
    for sel in &which {
        let t0 = std::time::Instant::now();
        let groups = bench::generate_groups(sel, threads);
        let mut count = 0;
        for group in &groups {
            eprintln!("[{sel}] {} {:.3}s wall", group.id, group.wall.as_secs_f64());
            for fig in &group.figures {
                count += 1;
                println!("{}", fig.to_table());
                if charts {
                    println!("{}", fig.to_ascii_chart());
                }
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{}.json", fig.id);
                    if let Err(e) = std::fs::write(&path, fig.to_json()) {
                        usage_error(&format!("cannot write {path:?}: {e}"));
                    }
                }
            }
        }
        eprintln!(
            "[{sel}] {count} figure(s) in {:.1}s wall",
            t0.elapsed().as_secs_f64()
        );
    }
    // Report the conformance oracles' tallies and fail the run if any
    // invariant fired (the oracles are pure observers: they move no byte of
    // the tables or JSON above).
    let summary = simcheck::summary();
    eprintln!("{summary}");
    if summary.total_violations() > 0 {
        std::process::exit(1);
    }
}

/// Fixed executor micro-workload reporting raw simulation throughput:
/// a mix of sequential timers, task churn and a contended pipe, merged
/// into one number (perfbench's `simnet.executor.*` rows are the record).
fn run_selftest() {
    use simnet::{Sim, SimDuration};

    let t0 = std::time::Instant::now();
    let sim = Sim::new();

    // Phase 1: sequential timer chain.
    let s = sim.clone();
    sim.block_on(async move {
        for _ in 0..100_000u32 {
            s.sleep(SimDuration::from_nanos(100)).await;
        }
    });

    // Phase 2: task churn (spawn → run → retire, slot recycling).
    let s = sim.clone();
    sim.block_on(async move {
        for _ in 0..50_000u32 {
            let c = s.clone();
            s.spawn(async move {
                c.sleep(SimDuration::from_nanos(1)).await;
            })
            .await;
        }
    });

    // Phase 3: contended bandwidth pipe (calendar reservations).
    let pipe = simnet::Pipe::new(
        &sim,
        simnet::ByteRate::from_gbps(8),
        SimDuration::from_nanos(40),
    );
    let mut handles = Vec::new();
    for _ in 0..8 {
        let p = pipe.clone();
        handles.push(sim.spawn(async move {
            for _ in 0..5_000u32 {
                p.transfer(simnet::Bytes::new(1_500)).await;
            }
        }));
    }
    sim.block_on(async move {
        simnet::sync::join_all(handles).await;
    });

    // Phase 3b: steady-state pipeline replay — the same multi-chunk
    // message shape over an uncontended 3-stage pipeline, the exact
    // pattern the whole-transfer memo (`simnet::memo`) accelerates. One
    // miss computes the plan; every following transfer replays it.
    let stages: Vec<simnet::Stage> = (0..3)
        .map(|_| {
            simnet::Stage::new(
                simnet::Pipe::new(
                    &sim,
                    simnet::ByteRate::from_gbps(10),
                    SimDuration::from_nanos(40),
                ),
                SimDuration::from_nanos(500),
            )
        })
        .collect();
    let pl = simnet::Pipeline::new(&sim, stages, simnet::Bytes::new(1_500));
    sim.block_on(async move {
        for _ in 0..2_000u32 {
            pl.transfer(simnet::Bytes::new(96_000), simnet::Bytes::new(58))
                .await;
        }
    });

    let wall = t0.elapsed();
    let st = sim.stats();
    let events = st.events();
    let eps = events as f64 / wall.as_secs_f64();
    let memo_lookups = st.memo_hits + st.memo_misses;
    let memo_hit_rate = if memo_lookups > 0 {
        st.memo_hits as f64 / memo_lookups as f64
    } else {
        0.0
    };
    println!(
        "simnet selftest: {events} events in {:.3}s wall",
        wall.as_secs_f64()
    );
    println!("  throughput        {eps:.0} events/sec");
    println!("  spawns            {}", st.spawns);
    println!("  polls             {}", st.polls);
    println!("  wakes             {}", st.wakes);
    println!("  redundant_wakes   {}", st.redundant_wakes);
    println!("  timers_set        {}", st.timers_set);
    println!("  timer_events      {}", st.timer_events);
    println!("  timers_cancelled  {}", st.timers_cancelled);
    println!("  fast_path_hits    {}", st.fast_path_hits);
    println!("  bookings          {}", st.bookings);
    println!("  memo_hits         {}", st.memo_hits);
    println!("  memo_misses       {}", st.memo_misses);
    println!("  memo_evictions    {}", st.memo_evictions);
    println!("  memo_hit_rate     {memo_hit_rate:.3}");

    // Phase 4: the sharded engine — a 4-host cluster exchange through the
    // conservative-lookahead barrier loop, reporting its shard counters.
    let t1 = std::time::Instant::now();
    let out = netbench::cluster::cluster_exchange(
        mpisim::FabricKind::MxoM,
        netbench::cluster::ClusterSpec::small(4),
    );
    let shard_wall = t1.elapsed();
    println!(
        "sharded selftest: {} events in {:.3}s wall ({} B moved, digest {:016x})",
        out.stats.events(),
        shard_wall.as_secs_f64(),
        out.bytes_moved,
        out.trace_digest,
    );
    println!("  shards            {}", out.stats.shards);
    println!("  cross_shard_events {}", out.stats.cross_shard_events);
    println!("  lookahead_rounds  {}", out.stats.lookahead_rounds);
    println!("  merge_queue_peak  {}", out.stats.merge_queue_peak);

    // Phase 5: the open-loop workload engine — a short overloaded RPC/KV
    // run through its whole path (seeded arrivals, fabric round trips,
    // quantile sketch), reporting the workload counters.
    let t2 = std::time::Instant::now();
    let spec = netbench::workload::WorkloadSpec::rpc_kv(
        mpisim::FabricKind::Iwarp,
        4,
        256,
        SimDuration::from_micros(2),
        0x7A11,
    );
    let sketch = std::rc::Rc::new(std::cell::RefCell::new(bench::sketch::LatencySketch::new()));
    let sink: netbench::workload::FlowSink = {
        let sketch = std::rc::Rc::clone(&sketch);
        std::rc::Rc::new(std::cell::RefCell::new(
            move |_tenant: usize, lat: SimDuration| {
                sketch.borrow_mut().record(lat.as_nanos());
            },
        ))
    };
    let wl = netbench::workload::run_workload(&spec, &sink);
    let wl_wall = t2.elapsed();
    let sk = sketch.borrow();
    println!(
        "workload selftest: {} events in {:.3}s wall ({} ns simulated)",
        wl.stats.events(),
        wl_wall.as_secs_f64(),
        wl.end.as_nanos(),
    );
    println!("  flows_issued      {}", wl.stats.flows_issued);
    println!("  flows_completed   {}", wl.stats.flows_completed);
    println!("  gen_backlog_peak  {}", wl.stats.gen_backlog_peak);
    println!("  flow_p50_ns       {}", sk.p50());
    println!("  flow_p99_ns       {}", sk.p99());
    println!("  flow_p999_ns      {}", sk.p999());
}
