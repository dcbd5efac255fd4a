//! The CLI subcommands.

use cbps::{
    EventSpace, MappingKind, NotifyMode, OverlayBackend, Primitive, PubSubConfig, PubSubNetwork,
};
use cbps_bench::report::{ExperimentReport, RunReport};
use cbps_bench::runner::{delivered_fingerprint, BackendKind, Deployment, RunTotals};
use cbps_bench::with_backend;
use cbps_sim::{Counter, NetConfig, ObsMode, SimDuration, TrafficClass};
use cbps_workload::{
    trace_from_str, trace_to_string, ReplayOutcome, Trace, WorkloadConfig, WorkloadGen,
};

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
    let space = EventSpace::paper_default();
    let nodes: usize = args.get_or("nodes", 100)?;
    if nodes == 0 {
        return Err(ArgError("--nodes must be at least 1".into()));
    }
    let subs: usize = args.get_or("subs", 500)?;
    let pubs: usize = args.get_or("pubs", 500)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let selective: usize = args.get_or("selective", 0)?;
    if selective > space.dims() {
        return Err(ArgError(format!(
            "--selective must be at most {} (the attribute count), got {selective}",
            space.dims()
        )));
    }
    let matching: f64 = args.get_or("match", 0.5)?;
    if !(0.0..=1.0).contains(&matching) {
        return Err(ArgError(format!(
            "--match must be a probability in [0, 1], got {matching}"
        )));
    }
    let streak: u64 = args.get_or("streak", 1)?;
    if streak == 0 {
        return Err(ArgError("--streak must be at least 1".into()));
    }
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

/// Rejects a trace that issues an operation from a node the deployment
/// does not have: the trace file is outside input, and replaying it would
/// panic on the first such operation.
fn check_trace_nodes(trace: &Trace, nodes: usize) -> Outcome {
    match trace.ops().iter().map(|op| op.node).max() {
        Some(max) if max >= nodes => Err(ArgError(format!(
            "the trace issues operations from node {max}, but --nodes is {nodes} \
             (node indices must be below it)"
        ))),
        _ => Ok(()),
    }
}

/// The flags `run-trace` and `stats` share: the deployment a trace file is
/// replayed against.
const DEPLOYMENT_FLAGS: [&str; 8] = [
    "nodes",
    "seed",
    "mapping",
    "primitive",
    "notify",
    "discretization",
    "replication",
    "overlay",
];

/// A trace file and the deployment it is replayed against, read from the
/// command line of `run-trace` or `stats`.
struct TraceRun {
    file: String,
    trace: Trace,
    deployment: Deployment,
    overlay: BackendKind,
}

impl TraceRun {
    /// Reads the trace file named after `command` and the deployment
    /// flags; `extra` names the command's own flags.
    fn parse(args: &Args, command: &str, extra: &[&str]) -> Result<Self, ArgError> {
        let allowed: Vec<&str> = DEPLOYMENT_FLAGS.iter().chain(extra).copied().collect();
        args.check_flags(&allowed)?;
        let file = args
            .positional()
            .get(1)
            .ok_or_else(|| ArgError(format!("{command} needs a trace FILE")))?
            .clone();
        let text = std::fs::read_to_string(&file)
            .map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
        let trace = trace_from_str(&EventSpace::paper_default(), &text)
            .map_err(|e| ArgError(format!("bad trace: {e}")))?;
        let nodes: usize = args.get_or("nodes", 100)?;
        check_trace_nodes(&trace, nodes)?;
        let discretization: u64 = args.get_or("discretization", 1)?;
        if discretization == 0 {
            return Err(ArgError("--discretization must be at least 1".into()));
        }
        Ok(TraceRun {
            file,
            trace,
            deployment: Deployment {
                nodes,
                seed: args.get_or("seed", 0)?,
                mapping: parse_mapping(args.get("mapping").unwrap_or("m2"))?,
                primitive: parse_primitive(args.get("primitive").unwrap_or("mcast"))?,
                notify: parse_notify(args.get("notify").unwrap_or("immediate"))?,
                discretization,
                replication: args.get_or("replication", 0)?,
            },
            overlay: parse_overlay(args)?,
        })
    }

    /// Builds the deployment on substrate `B` under observability `obs`.
    fn build<B: OverlayBackend>(&self, obs: ObsMode) -> Result<PubSubNetwork<B>, ArgError> {
        self.deployment
            .try_build_on(obs)
            .map_err(|e| ArgError(format!("invalid configuration: {e}")))
    }

    /// Replays the trace and lets the network drain for ten simulated
    /// minutes past its last operation.
    fn replay<B: OverlayBackend>(&self, net: &mut PubSubNetwork<B>) -> ReplayOutcome {
        let outcome = self.trace.replay(net);
        net.run_until(self.trace.end_time() + SimDuration::from_secs(600));
        outcome
    }
}

/// `cbps run-trace`: replay a trace file against a fresh deployment and
/// print the run's statistics.
pub fn run_trace(args: &Args) -> Outcome {
    let run = TraceRun::parse(args, "run-trace", &[])?;
    let trace = &run.trace;
    with_backend!(run.overlay, B => {
        let mut net = run.build::<B>(ObsMode::Off)?;
        let outcome = run.replay(&mut net);

        let m = net.metrics();
        let subs = trace.sub_count().max(1) as f64;
        let pubs = trace.pub_count().max(1) as f64;
        let d = &run.deployment;
        println!(
            "deployment: {} nodes, {} overlay, {}, {:?}, {:?}",
            d.nodes, run.overlay, d.mapping, d.primitive, d.notify
        );
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
        println!("matches: {}", m.count(Counter::Matches));
        println!(
            "notifications delivered: {}",
            m.count(Counter::NotificationsDelivered)
        );
        let peaks = net.peak_stored_counts();
        let max = peaks.iter().max().copied().unwrap_or(0);
        let avg = peaks.iter().sum::<usize>() as f64 / peaks.len().max(1) as f64;
        println!("stored subscriptions/node: max {max}, avg {avg:.1}");
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
    let run = TraceRun::parse(args, "stats", &["out"])?;
    let record = with_backend!(run.overlay, B => {
        let mut net = run.build::<B>(ObsMode::Full)?;

        let started = std::time::Instant::now();
        run.replay(&mut net);
        let wall_secs = started.elapsed().as_secs_f64();

        let mut totals = RunTotals::default();
        let sim = net.sim_mut();
        totals.record_events(sim.events_processed(), sim.queue_peak());
        totals.record_obs(&mut net);
        ExperimentReport::new(run.file.clone(), wall_secs, &totals)
    });
    let report = RunReport {
        scale: "trace".to_owned(),
        nodes: Some(run.deployment.nodes),
        jobs: 1,
        observability: ObsMode::Full.name().to_owned(),
        overlay: run.overlay.name().to_owned(),
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
    if inspect >= nodes {
        return Err(ArgError(format!(
            "--node must be below --nodes ({nodes}), got {inspect}"
        )));
    }
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
    let me = ring
        .peers()
        .iter()
        .find(|p| p.idx == inspect)
        .expect("--node is below --nodes");
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from)).expect("well-formed test flags")
    }

    /// A trace generated for 80 nodes names nodes a 10-node deployment
    /// lacks: `run-trace` and `stats` refuse it with an error naming the
    /// largest node index and `--nodes`, instead of panicking mid-replay.
    #[test]
    fn trace_naming_a_node_past_nodes_is_an_argument_error() {
        let path =
            std::env::temp_dir().join(format!("cbps-cli-{}-nodes.trace", std::process::id()));
        let path = path.to_str().expect("the temp directory path is UTF-8");
        gen_trace(&args(&format!(
            "gen-trace --out {path} --nodes 80 --subs 20 --pubs 20 --seed 5"
        )))
        .expect("the trace is written");
        let text = std::fs::read_to_string(path).expect("the trace reads back");
        let trace = trace_from_str(&EventSpace::paper_default(), &text).expect("a valid trace");
        let max = trace
            .ops()
            .iter()
            .map(|op| op.node)
            .max()
            .expect("a non-empty trace");
        assert!(max >= 10, "the trace names no node past the deployment");
        let refuses = |name: &str, command: fn(&Args) -> Outcome| {
            let err = command(&args(&format!("{name} {path} --nodes 10")))
                .expect_err("the trace names nodes the deployment lacks");
            assert!(
                err.0.contains(&format!("node {max},")) && err.0.contains("--nodes is 10"),
                "{name}: {err}"
            );
        };
        refuses("run-trace", run_trace);
        refuses("stats", stats);
        std::fs::remove_file(path).expect("the trace is removed");
    }

    /// Flag values the workload generator and the mapping would reject
    /// with an assertion, and a `ring --node` past the ring, are argument
    /// errors naming the flag, checked before anything is built.
    #[test]
    fn out_of_range_flags_are_argument_errors() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("cbps-cli-{}-flags.trace", std::process::id()));
        let trace = trace.to_str().expect("the temp directory path is UTF-8");
        let unwritten = dir.join(format!("cbps-cli-{}-unwritten.trace", std::process::id()));
        let unwritten = unwritten
            .to_str()
            .expect("the temp directory path is UTF-8");
        gen_trace(&args(&format!(
            "gen-trace --out {trace} --nodes 10 --subs 5 --pubs 5 --seed 3"
        )))
        .expect("the trace is written");
        // (command, flag, value): the error must name the flag.
        let cases = [
            ("gen-trace", "match", "1.5"),
            ("gen-trace", "selective", "9"),
            ("gen-trace", "streak", "0"),
            ("gen-trace", "nodes", "0"),
            ("run-trace", "discretization", "0"),
            ("stats", "discretization", "0"),
            ("ring", "node", "20"),
        ];
        for (name, flag, value) in cases {
            let (line, command): (_, fn(&Args) -> Outcome) = match name {
                "gen-trace" => (format!("{name} --out {unwritten}"), gen_trace),
                "run-trace" => (format!("{name} {trace}"), run_trace),
                "ring" => (name.to_owned(), ring),
                _ => (format!("{name} {trace}"), stats),
            };
            let line = format!("{line} --{flag} {value}");
            let err = command(&args(&line)).expect_err(&line);
            assert!(err.0.contains(&format!("--{flag}")), "{line}: {err}");
        }
        assert!(
            !std::path::Path::new(unwritten).exists(),
            "a refused gen-trace wrote its output"
        );
        std::fs::remove_file(trace).expect("the trace is removed");
    }
}
