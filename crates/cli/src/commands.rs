//! The CLI subcommands.

use cbps::{
    EventSpace, MappingKind, NotifyMode, OverlayBackend as _, Primitive, PubSubConfig,
    PubSubNetwork, PubSubNetworkBuilder, RendezvousMode,
};
use cbps_bench::report::{ExperimentReport, ObsReport, RunReport};
use cbps_bench::runner::{delivered_fingerprint, BackendKind};
use cbps_bench::with_backend;
use cbps_sim::{
    MatchEngineKind, NetConfig, ObsMode, PoolMode, SchedulerKind, SimDuration, TrafficClass,
};
use cbps_workload::{trace_from_str, trace_to_string, WorkloadConfig, WorkloadGen};

use crate::args::{ArgError, Args};

type Outcome = Result<(), ArgError>;

fn parse_overlay(args: &Args) -> Result<BackendKind, ArgError> {
    let s = args.get("overlay").unwrap_or("chord");
    BackendKind::parse(s).ok_or_else(|| ArgError(format!("unknown overlay {s:?} (chord|pastry)")))
}

/// `cbps gen-trace`: generate a §5.1 workload trace file.
pub fn gen_trace(args: &Args) -> Outcome {
    args.check_flags(&[
        "out",
        "nodes",
        "subs",
        "pubs",
        "seed",
        "selective",
        "match",
        "streak",
        "ttl",
        "flash-crowd",
        "flash-alpha",
    ])?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("gen-trace needs --out FILE".into()))?
        .to_owned();
    let nodes: usize = args.get_or("nodes", 100)?;
    let subs: usize = args.get_or("subs", 500)?;
    let pubs: usize = args.get_or("pubs", 500)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let selective: usize = args.get_or("selective", 0)?;
    let matching: f64 = args.get_or("match", 0.5)?;
    let streak: u64 = args.get_or("streak", 1)?;
    let ttl: Option<u64> = match args.get("ttl") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| ArgError(format!("bad --ttl {v:?}")))?,
        ),
    };
    let flash_crowd: usize = args.get_or("flash-crowd", 0)?;
    let flash_alpha: f64 = args.get_or("flash-alpha", 1.1)?;
    if !(flash_alpha.is_finite() && flash_alpha > 0.0) {
        return Err(ArgError(format!(
            "--flash-alpha must be positive, got {flash_alpha}"
        )));
    }

    let space = EventSpace::paper_default();
    let cfg = WorkloadConfig::paper_default(nodes, space.dims())
        .with_selective_attrs(selective)
        .with_counts(subs, pubs)
        .with_matching_probability(matching)
        .with_seed_streak(streak)
        .with_flash_crowd(flash_crowd, flash_alpha)
        .with_sub_ttl(ttl.map(SimDuration::from_secs));
    let mut gen = WorkloadGen::new(space.clone(), cfg, seed);
    let trace = gen.gen_trace();
    let text = trace_to_string(&space, &trace);
    std::fs::write(&out, &text).map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    println!(
        "wrote {} ({} subscriptions, {} publications, ends at {})",
        out,
        trace.sub_count(),
        trace.pub_count(),
        trace.end_time()
    );
    Ok(())
}

fn parse_mapping(s: &str) -> Result<MappingKind, ArgError> {
    Ok(match s {
        "m1" | "attribute-split" => MappingKind::AttributeSplit,
        "m2" | "keyspace-split" => MappingKind::KeySpaceSplit,
        "m3" | "selective" => MappingKind::SelectiveAttribute,
        other => return Err(ArgError(format!("unknown mapping {other:?} (m1|m2|m3)"))),
    })
}

fn parse_primitive(s: &str) -> Result<Primitive, ArgError> {
    Ok(match s {
        "unicast" => Primitive::Unicast,
        "mcast" | "m-cast" => Primitive::MCast,
        "walk" => Primitive::Walk,
        other => return Err(ArgError(format!("unknown primitive {other:?}"))),
    })
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, ArgError> {
    SchedulerKind::parse(s).ok_or_else(|| ArgError(format!("unknown scheduler {s:?} (wheel|heap)")))
}

fn parse_match_engine(s: &str) -> Result<MatchEngineKind, ArgError> {
    MatchEngineKind::parse(s)
        .ok_or_else(|| ArgError(format!("unknown match engine {s:?} (counting|sorted)")))
}

fn parse_pool(s: &str) -> Result<PoolMode, ArgError> {
    PoolMode::parse(s).ok_or_else(|| ArgError(format!("unknown pool mode {s:?} (reuse|fresh)")))
}

fn parse_rendezvous(s: &str) -> Result<RendezvousMode, ArgError> {
    RendezvousMode::parse(s)
        .ok_or_else(|| ArgError(format!("unknown rendezvous policy {s:?} (static|adaptive)")))
}

fn parse_notify(s: &str) -> Result<NotifyMode, ArgError> {
    if s == "immediate" {
        return Ok(NotifyMode::Immediate);
    }
    if let Some(secs) = s.strip_prefix("buffered:") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| ArgError(format!("bad period in {s:?}")))?;
        return Ok(NotifyMode::Buffered {
            period: SimDuration::from_secs(secs),
        });
    }
    if let Some(secs) = s.strip_prefix("collecting:") {
        let secs: u64 = secs
            .parse()
            .map_err(|_| ArgError(format!("bad period in {s:?}")))?;
        return Ok(NotifyMode::Collecting {
            period: SimDuration::from_secs(secs),
        });
    }
    Err(ArgError(format!(
        "unknown notify mode {s:?} (immediate|buffered:SECS|collecting:SECS)"
    )))
}

/// `cbps run-trace`: replay a trace file against a fresh deployment and
/// print the run's statistics.
pub fn run_trace(args: &Args) -> Outcome {
    args.check_flags(&[
        "nodes",
        "seed",
        "mapping",
        "primitive",
        "notify",
        "discretization",
        "replication",
        "scheduler",
        "match-engine",
        "pool",
        "rendezvous",
        "overlay",
    ])?;
    let file = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("run-trace needs a trace FILE".into()))?;
    let text =
        std::fs::read_to_string(file).map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
    let space = EventSpace::paper_default();
    let trace = trace_from_str(&space, &text).map_err(|e| ArgError(format!("bad trace: {e}")))?;

    let nodes: usize = args.get_or("nodes", 100)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mapping = parse_mapping(args.get("mapping").unwrap_or("m2"))?;
    let primitive = parse_primitive(args.get("primitive").unwrap_or("mcast"))?;
    let notify = parse_notify(args.get("notify").unwrap_or("immediate"))?;
    let discretization: u64 = args.get_or("discretization", 1)?;
    let replication: usize = args.get_or("replication", 0)?;
    let scheduler = parse_scheduler(args.get("scheduler").unwrap_or("wheel"))?;
    let match_engine = parse_match_engine(args.get("match-engine").unwrap_or("counting"))?;
    let pool = parse_pool(args.get("pool").unwrap_or("reuse"))?;
    let rendezvous = parse_rendezvous(args.get("rendezvous").unwrap_or("static"))?;
    let overlay = parse_overlay(args)?;

    cbps_bench::runner::set_backend(overlay);
    let keys = cbps::deployment_key_space(nodes);
    with_backend!(B => {
        let mut net = PubSubNetworkBuilder::<B>::new()
            .nodes(nodes)
            .overlay(B::with_key_space(B::paper_default(), keys))
            .net_config(
                NetConfig::new(seed)
                    .with_scheduler(scheduler)
                    .with_match_engine(match_engine)
                    .with_pool(pool),
            )
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(mapping)
                    .with_primitive(primitive)
                    .with_notify_mode(notify)
                    .with_discretization(discretization)
                    .with_replication(replication)
                    .with_rendezvous(rendezvous)
                    .with_key_space(keys),
            )
            .build()
            .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;

        let outcome = trace.replay(&mut net);
        net.run_until(trace.end_time() + SimDuration::from_secs(600));

        let m = net.metrics();
        let subs = trace.sub_count().max(1) as f64;
        let pubs = trace.pub_count().max(1) as f64;
        println!("deployment: {nodes} nodes, {overlay} overlay, {mapping}, {primitive:?}, {notify:?}");
        println!(
            "trace: {} subscriptions, {} publications",
            trace.sub_count(),
            trace.pub_count()
        );
        println!("one-hop messages:");
        for class in [
            TrafficClass::SUBSCRIPTION,
            TrafficClass::PUBLICATION,
            TrafficClass::NOTIFICATION,
            TrafficClass::COLLECT,
            TrafficClass::STATE_TRANSFER,
        ] {
            println!("  {:<14} {}", class.name(), m.messages(class));
        }
        println!(
            "hops/subscription: {:.2}",
            m.messages(TrafficClass::SUBSCRIPTION) as f64 / subs
        );
        println!(
            "hops/publication:  {:.2}",
            m.messages(TrafficClass::PUBLICATION) as f64 / pubs
        );
        println!("matches: {}", m.counter("matches"));
        println!(
            "notifications delivered: {}",
            m.counter("notifications.delivered")
        );
        let peaks = net.peak_stored_counts();
        let max = peaks.iter().max().copied().unwrap_or(0);
        let avg = peaks.iter().sum::<usize>() as f64 / peaks.len().max(1) as f64;
        println!("stored subscriptions/node: max {max}, avg {avg:.1}");
        if rendezvous == RendezvousMode::Adaptive {
            let (splits, merges) = net.rendezvous_counters();
            println!("rendezvous splits: {splits} merges: {merges}");
        }
        let (fp, count) = delivered_fingerprint(&net);
        println!("delivered-set fingerprint: {fp:#018x} ({count} notifications)");
        let expected = outcome.oracle.expected().len();
        println!("oracle (timing-agnostic) expected pairs: {expected}");
    });
    Ok(())
}

/// `cbps stats`: replay a trace file with observability on and emit the
/// structured `cbps-report/v2` JSON document (per-stage latency
/// percentiles, named histograms, hottest rendezvous nodes).
pub fn stats(args: &Args) -> Outcome {
    args.check_flags(&[
        "nodes",
        "seed",
        "mapping",
        "primitive",
        "notify",
        "discretization",
        "replication",
        "scheduler",
        "match-engine",
        "pool",
        "rendezvous",
        "overlay",
        "out",
    ])?;
    let file = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("stats needs a trace FILE".into()))?;
    let text =
        std::fs::read_to_string(file).map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
    let space = EventSpace::paper_default();
    let trace = trace_from_str(&space, &text).map_err(|e| ArgError(format!("bad trace: {e}")))?;

    let nodes: usize = args.get_or("nodes", 100)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let mapping = parse_mapping(args.get("mapping").unwrap_or("m2"))?;
    let primitive = parse_primitive(args.get("primitive").unwrap_or("mcast"))?;
    let notify = parse_notify(args.get("notify").unwrap_or("immediate"))?;
    let discretization: u64 = args.get_or("discretization", 1)?;
    let replication: usize = args.get_or("replication", 0)?;
    let scheduler = parse_scheduler(args.get("scheduler").unwrap_or("wheel"))?;
    let match_engine = parse_match_engine(args.get("match-engine").unwrap_or("counting"))?;
    let pool = parse_pool(args.get("pool").unwrap_or("reuse"))?;
    let rendezvous = parse_rendezvous(args.get("rendezvous").unwrap_or("static"))?;
    let overlay = parse_overlay(args)?;

    cbps_bench::runner::set_backend(overlay);
    let keys = cbps::deployment_key_space(nodes);
    let record = with_backend!(B => {
        let mut net = PubSubNetworkBuilder::<B>::new()
            .nodes(nodes)
            .overlay(B::with_key_space(B::paper_default(), keys))
            .net_config(
                NetConfig::new(seed)
                    .with_scheduler(scheduler)
                    .with_match_engine(match_engine)
                    .with_pool(pool),
            )
            .pubsub(
                PubSubConfig::paper_default()
                    .with_mapping(mapping)
                    .with_primitive(primitive)
                    .with_notify_mode(notify)
                    .with_discretization(discretization)
                    .with_replication(replication)
                    .with_rendezvous(rendezvous)
                    .with_key_space(keys),
            )
            .observability(ObsMode::Full)
            .build()
            .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;

        let started = std::time::Instant::now();
        trace.replay(&mut net);
        net.run_until(trace.end_time() + SimDuration::from_secs(600));
        let wall_secs = started.elapsed().as_secs_f64();

        let peaks: Vec<u64> = net
            .peak_stored_counts()
            .into_iter()
            .map(|p| p as u64)
            .collect();
        let work = net.rendezvous_work_counts();
        let (splits, merges) = net.rendezvous_counters();
        let sim = net.sim_mut();
        let events = sim.events_processed();
        let peak_queue_depth = sim.queue_peak() as u64;
        let obs = std::mem::take(net.metrics_mut().obs_mut());
        ExperimentReport {
            name: file.clone(),
            wall_secs,
            events,
            peak_queue_depth,
            obs: Some(ObsReport::distill(&obs, &peaks).with_load(&work, splits, merges)),
            alloc: None,
        }
    });
    let report = RunReport {
        scale: "trace".to_owned(),
        jobs: 1,
        observability: ObsMode::Full.name().to_owned(),
        scheduler: scheduler.name().to_owned(),
        match_engine: match_engine.name().to_owned(),
        rendezvous: rendezvous.name().to_owned(),
        overlay: overlay.name().to_owned(),
        experiments: vec![record],
    };
    let json = report.to_json();
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
            eprintln!("run report written to {out}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// `cbps ring`: print ring occupancy and one node's routing tables.
pub fn ring(args: &Args) -> Outcome {
    args.check_flags(&["nodes", "seed", "node"])?;
    let nodes: usize = args.get_or("nodes", 20)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let inspect: usize = args.get_or("node", 0)?;
    let keys = cbps::deployment_key_space(nodes);
    let net = PubSubNetwork::builder()
        .nodes(nodes)
        .net_config(NetConfig::new(seed))
        .overlay(cbps::ChordBackend::with_key_space(
            cbps::ChordBackend::paper_default(),
            keys,
        ))
        .pubsub(PubSubConfig::paper_default().with_key_space(keys))
        .build()
        .map_err(|e| ArgError(format!("invalid configuration: {e}")))?;
    let ring = net.ring();
    println!(
        "ring: {} nodes over {} keys",
        ring.len(),
        ring.space().size()
    );
    for peer in ring.peers() {
        let marker = if peer.idx == inspect {
            "  <-- --node"
        } else {
            ""
        };
        println!(
            "  node {:>4}  key {:>6}{}",
            peer.idx,
            peer.key.value(),
            marker
        );
    }
    if inspect < nodes {
        let me = ring
            .peers()
            .iter()
            .find(|p| p.idx == inspect)
            .expect("exists");
        println!(
            "\nfinger table of node {} (key {}):",
            me.idx,
            me.key.value()
        );
        for (i, f) in ring.fingers_of(me.key).iter().enumerate() {
            println!(
                "  finger {:>2}  target {:>6}  ->  node {:>4} (key {})",
                i,
                ring.space().finger_target(me.key, i as u32).value(),
                f.idx,
                f.key.value()
            );
        }
    }
    Ok(())
}

/// `cbps experiment`: run a named experiment from the bench harness.
pub fn experiment(args: &Args) -> Outcome {
    args.check_flags(&["scale", "nodes", "jobs", "match-engine", "pool", "overlay"])?;
    let name = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("experiment needs a NAME".into()))?;
    let raw_scale = args.get("scale").unwrap_or("quick");
    let scale = cbps_bench::Scale::parse(raw_scale)
        .ok_or_else(|| ArgError(format!("unknown scale {raw_scale:?}")))?;
    if let Some(nodes) = args.get("nodes") {
        let n: usize = nodes
            .parse()
            .map_err(|_| ArgError(format!("--nodes expects an integer, got {nodes:?}")))?;
        if n == 0 || n > cbps_bench::runner::MAX_NODES {
            return Err(ArgError(format!(
                "--nodes must be in 1..={}",
                cbps_bench::runner::MAX_NODES
            )));
        }
        cbps_bench::runner::set_nodes_override(n);
    }
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err(ArgError("--jobs must be at least 1".into()));
    }
    cbps_bench::runner::set_jobs(jobs);
    cbps_bench::runner::set_match_engine(parse_match_engine(
        args.get("match-engine").unwrap_or("counting"),
    )?);
    cbps_bench::runner::set_pool(parse_pool(args.get("pool").unwrap_or("reuse"))?);
    cbps_bench::runner::set_backend(parse_overlay(args)?);
    let tables = cbps_bench::experiments::run_named(name, scale).ok_or_else(|| {
        ArgError(format!(
            "unknown experiment {name:?}; known: {}",
            cbps_bench::experiments::EXPERIMENT_NAMES.join(", ")
        ))
    })?;
    for t in tables {
        println!("{}", t.render());
    }
    Ok(())
}
