//! The repro harness: regenerates every table and figure of
//! "Paravirtual Remote I/O" (ASPLOS 2016).
//!
//! ```text
//! repro --help           # usage, every flag and every experiment
//! repro --all            # everything (full preset)
//! repro --quick --all    # everything, short runs
//! repro --fig7 --tab3    # selected experiments
//! repro --quick --tab3 --trace /tmp/t --json /tmp/j
//!                        # ...plus the instrumented observability pass:
//!                        # TRACE_tab3.json (Perfetto) and BENCH_tab3.json
//! repro --quick --sweep smoke --threads 4 --json benches
//!                        # the parallel sweep engine: expands the named
//!                        # grid, runs it across 4 OS threads, and emits
//!                        # BENCH_sweep_smoke.json (byte-identical for any
//!                        # thread count)
//! repro --quick --chaos primary-kill --threads 4 --json benches
//!                        # the chaos-schedule engine: run the named
//!                        # campaign's replicas (outages, loss storms,
//!                        # surges) with the oracle on and emit
//!                        # BENCH_chaos_primary-kill.json (byte-identical
//!                        # for any thread count)
//! repro --quick --tab3 --oracle --json /tmp/j
//!                        # ...with the simulation oracle: every run is
//!                        # checked against the conservation invariants
//!                        # (observe-only — the output bytes are identical)
//! repro --quick --tab3 --telemetry --json /tmp/j
//!                        # ...with continuous telemetry sampling: emits a
//!                        # TELEM_tab3.json track bundle and counter tracks
//!                        # in the Chrome trace (observe-only — every
//!                        # BENCH_* document stays byte-identical)
//! repro --quick --tab3 --profile --json /tmp/j
//!                        # ...with the wall-clock self-profiler: emits
//!                        # PROF_tab3.json (host time; excluded from every
//!                        # byte-identity gate). --profile needs --json and
//!                        # is rejected with --sweep or --chaos
//! ```

use vrio_bench::*;
use vrio_trace::Json;

/// Tracks every file written so the run can list them at exit, and turns
/// write failures into a clear message instead of a panic.
#[derive(Default)]
struct Outputs {
    written: Vec<String>,
}

impl Outputs {
    fn ensure_dir(dir: &str) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create output directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    fn write(&mut self, path: String, content: &str) {
        if let Err(e) = std::fs::write(&path, content) {
            eprintln!("repro: cannot write {path}: {e}");
            std::process::exit(1);
        }
        self.written.push(path);
    }

    fn report(&self) {
        if !self.written.is_empty() {
            println!("\nfiles written:");
            for f in &self.written {
                println!("  {f}");
            }
        }
    }
}

/// Re-tags a `BENCH_*` document's `experiment` key. The instrumented pass
/// itself is experiment-independent (it is the canonical RR lifecycle), so
/// it runs once and is stamped per selected experiment.
fn with_experiment(mut doc: Json, name: &str) -> Json {
    if let Json::Obj(ref mut pairs) = doc {
        for (k, v) in pairs.iter_mut() {
            if k == "experiment" {
                *v = Json::str(name);
            }
        }
    }
    doc
}

/// A selectable experiment: its flag and the function rendering its report.
type Experiment = (&'static str, fn(ReproConfig) -> String);

/// Every selectable experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    ("--fig1", |_| fig1()),
    ("--fig2", |_| fig2()),
    ("--tab1", |_| tab1()),
    ("--tab2", |_| tab2()),
    ("--fig3", |_| fig3()),
    ("--tab3", tab3),
    ("--fig5", fig5),
    ("--fig7", fig7),
    ("--fig8", fig8),
    ("--tab4", tab4),
    ("--fig9", fig9),
    ("--fig10", fig10),
    ("--fig11", fig11),
    ("--fig12", fig12),
    ("--fig13", fig13),
    ("--fig14", fig14),
    ("--fig15", fig15),
    ("--fig16", fig16),
    ("--hetero", hetero),
    ("--retx", retx_validation),
    ("--failover", failover),
    ("--rings", rings),
    ("--differential", differential),
];

/// The `--help` text: synopsis, every flag, and every experiment.
fn usage() -> String {
    let experiments: Vec<&str> = EXPERIMENTS.iter().map(|(f, _)| *f).collect();
    format!(
        "usage: repro [--quick] [--all | EXPERIMENT...] [OPTIONS]\n\
         \n\
         Regenerates the tables and figures of \"Paravirtual Remote I/O\".\n\
         With no experiment, --sweep or --chaos selected, runs everything.\n\
         \n\
         experiments:\n  {}\n\
         \n\
         options:\n  \
         --quick              short horizons\n  \
         --all                every experiment\n  \
         --ring LAYOUT        split | split-eventidx | packed virtqueues\n  \
         --out DIR            write each report as DIR/<experiment>.txt\n  \
         --trace DIR          write TRACE_<experiment>.json (Chrome trace)\n  \
         --json DIR           write BENCH_<experiment>.json (and sweep/chaos documents)\n  \
         --sweep NAME         run the named parameter sweep\n  \
         --chaos NAME         run the named chaos campaign\n  \
         --threads N          worker threads for --sweep/--chaos (default 4)\n  \
         --oracle             check conservation invariants (observe-only)\n  \
         --telemetry          sample time-series tracks into TELEM_*.json\n  \
         --profile            write PROF_<experiment>.json (needs --json; not with --sweep/--chaos)\n  \
         --help               print this text\n",
        experiments.join(" ")
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        print!("{}", usage());
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let mut rc = if quick {
        ReproConfig::quick()
    } else {
        ReproConfig::full()
    };

    // --out/--trace/--json DIR, --sweep SPEC, --threads N: each takes a
    // value argument and is removed from the argument list before
    // experiment selection.
    let mut value_flag = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            let v = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires an argument");
                std::process::exit(2);
            });
            args.drain(i..=i + 1);
            v
        })
    };
    // --ring LAYOUT: run every experiment over the named virtqueue layout
    // (split | split-eventidx | packed). The default split layout
    // reproduces the seed's output byte-for-byte.
    if let Some(name) = value_flag("--ring") {
        rc.ring = vrio::RingConfig::from_name(&name).unwrap_or_else(|| {
            eprintln!("--ring expects split | split-eventidx | packed, got {name}");
            std::process::exit(2);
        });
    }
    let out_dir = value_flag("--out");
    let trace_dir = value_flag("--trace");
    let json_dir = value_flag("--json");
    let sweep_name = value_flag("--sweep");
    let chaos_name = value_flag("--chaos");
    let threads: usize = value_flag("--threads")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--threads requires a positive integer, got {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(4);
    // --oracle: run the instrumented pass and any sweep with the
    // simulation oracle enabled (observe-only; panics on violation).
    let oracle = {
        let n = args.len();
        args.retain(|a| a != "--oracle");
        args.len() != n
    };
    // --telemetry: sample continuous time-series tracks (observe-only;
    // lands in TELEM_* files, never changes BENCH_* bytes).
    let telemetry = {
        let n = args.len();
        args.retain(|a| a != "--telemetry");
        args.len() != n
    };
    // --profile: wall-clock self-profiling (PROF_* files; nondeterministic
    // by nature, so nothing ever byte-diffs them).
    let profile = {
        let n = args.len();
        args.retain(|a| a != "--profile");
        args.len() != n
    };
    // The profiler covers only the experiments' instrumented pass, whose
    // PROF_*.json lands in the --json directory: anything else would
    // silently write nothing.
    if profile && (json_dir.is_none() || sweep_name.is_some() || chaos_name.is_some()) {
        eprintln!("--profile requires --json DIR and cannot be combined with --sweep or --chaos");
        std::process::exit(2);
    }
    for dir in [&out_dir, &trace_dir, &json_dir].into_iter().flatten() {
        Outputs::ensure_dir(dir);
    }
    let mut outputs = Outputs::default();

    // `--quick` alone still means "run everything", but a bare sweep or
    // chaos invocation runs only that.
    let all = args.iter().any(|a| a == "--all")
        || (sweep_name.is_none() && chaos_name.is_none() && args.iter().all(|a| a == "--quick"));

    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    let known: Vec<&str> = EXPERIMENTS.iter().map(|(f, _)| *f).collect();
    for a in &args {
        if a != "--all" && a != "--quick" && !known.contains(&a.as_str()) {
            eprintln!("unknown flag {a}; known: --all --quick {}", known.join(" "));
            std::process::exit(2);
        }
    }

    // The instrumented observability pass (5 traced RR runs) is computed
    // lazily, at most once, when --trace/--json ask for its artifacts.
    let mut obs: Option<ObsReport> = None;

    let mut ran = 0;
    for (flag, run) in EXPERIMENTS {
        if want(flag) {
            let report = run(rc);
            println!("{}", "=".repeat(74));
            println!("{report}");
            let name = flag.trim_start_matches("--");
            if let Some(dir) = &out_dir {
                outputs.write(format!("{dir}/{name}.txt"), &report);
            }
            if trace_dir.is_some() || json_dir.is_some() {
                let rep = obs.get_or_insert_with(|| {
                    latency_breakdown_instrumented(rc, "all", oracle, telemetry, profile)
                });
                if let Some(dir) = &trace_dir {
                    outputs.write(format!("{dir}/TRACE_{name}.json"), &rep.chrome);
                }
                if let Some(dir) = &json_dir {
                    let doc = with_experiment(rep.json.clone(), name);
                    outputs.write(format!("{dir}/BENCH_{name}.json"), &doc.render_pretty());
                    if let Some(telem) = &rep.telemetry {
                        outputs.write(format!("{dir}/TELEM_{name}.json"), &telem.render_pretty());
                    }
                    if let Some(prof) = &rep.profile {
                        outputs.write(format!("{dir}/PROF_{name}.json"), &prof.render_pretty());
                    }
                }
            }
            ran += 1;
        }
    }
    // The parallel sweep engine: expand the named grid, run it across OS
    // threads, emit the schema-versioned BENCH_sweep_*.json. The document
    // is byte-identical for every --threads value (CI diffs 1 vs 4).
    if let Some(name) = &sweep_name {
        let mut spec = SweepSpec::named(name, rc).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(2);
        });
        spec.oracle = oracle;
        spec.telemetry = telemetry;
        let sweep = run_sweep(&spec, threads, true).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(2);
        });
        println!("{}", "=".repeat(74));
        println!("{}", sweep.render_text());
        let dir = json_dir.clone().unwrap_or_else(|| ".".to_string());
        outputs.write(
            format!("{dir}/BENCH_sweep_{}.json", spec.name),
            &sweep.to_json().render_pretty(),
        );
        if telemetry {
            outputs.write(
                format!("{dir}/TELEM_sweep_{}.json", spec.name),
                &telemetry_bundle(&sweep.telemetry_runs()).render_pretty(),
            );
        }
        ran += 1;
    }
    // The chaos-schedule engine: run the named campaign's replicas across
    // OS threads, emit BENCH_chaos_*.json (byte-identical for any
    // --threads value; every replica runs with the oracle on).
    if let Some(name) = &chaos_name {
        let mut campaign = ChaosCampaign::named(name, rc).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(2);
        });
        campaign.telemetry = telemetry;
        let chaos = run_chaos(&campaign, threads, true).unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(2);
        });
        println!("{}", "=".repeat(74));
        println!("{}", chaos.render_text());
        let dir = json_dir.clone().unwrap_or_else(|| ".".to_string());
        outputs.write(
            format!("{dir}/BENCH_chaos_{}.json", campaign.name),
            &chaos.to_json().render_pretty(),
        );
        if telemetry {
            let runs: Vec<_> = chaos
                .replicas
                .iter()
                .map(|r| (format!("r{}", r.replica), r.telemetry.clone()))
                .collect();
            outputs.write(
                format!("{dir}/TELEM_chaos_{}.json", campaign.name),
                &telemetry_bundle(&runs).render_pretty(),
            );
        }
        ran += 1;
    }
    if ran == 0 {
        eprintln!("nothing selected; try --all or one of {}", known.join(" "));
        std::process::exit(2);
    }
    if let Some(rep) = &obs {
        println!("{}", "=".repeat(74));
        println!("{}", rep.text);
    }
    outputs.report();
}
