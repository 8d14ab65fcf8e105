//! The `pbc` command-line tool — see `pbc --help`.

use std::process::ExitCode;

const HELP: &str = "\
pbc — cross-component power coordination for power-bounded systems

USAGE:
  pbc platforms                         list the built-in platform models
  pbc benchmarks                        list the Table-3 workload suite
  pbc probe     -p PLATFORM -w BENCH    profile the critical power values
  pbc coord     -p PLATFORM -w BENCH -b WATTS
                                        coordinate a budget (COORD)
  pbc sweep     -p PLATFORM -w BENCH -b WATTS [--save FILE]
                                        exhaustive allocation sweep
  pbc curve     -p PLATFORM -w BENCH -b W1,W2,...
                                        shared-grid sweep over several
                                        budgets (one pooled job + memo)
  pbc scenarios -p PLATFORM -w BENCH -b WATTS
                                        sweep with scenario labels (CPU)
  pbc online    -p PLATFORM -w BENCH -b WATTS
                                        model-free online coordination
  pbc fastpath  -p PLATFORM -w BENCH -b W1,W2,...
                                        table-served allocations per
                                        budget (steady-state fast path)
  pbc corun     -p PLATFORM -w A,B -b WATTS
                                        coordinate two co-running jobs
  pbc hybrid    --host CPU --card GPU --host-bench X --gpu-bench Y
                --gpu-share F -b WATTS  coordinate a host+card node
  pbc report    -p PLATFORM -w BENCH -b WATTS
                                        markdown coordination report
  pbc chaos     -p PLATFORM -w BENCH -b WATTS [--plan NAME] [--seed N]
                [--epochs N]             run a fault plan against the
                                        online loop, print survival report
  pbc cluster   -p SPEC-FILE -b WATTS [--plan NAME] [--seed N]
                [--epochs N] [--objective NAME] [--tenants SPEC]
                                        coordinate a fleet of nodes under
                                        one global budget; with --epochs,
                                        replay a fault plan on top
  pbc cluster-chaos -p SPEC-FILE -b WATTS [--plan NAME] [--seed N]
                [--epochs N] [--objective NAME] [--tenants SPEC]
                                        replay a fleet fault plan with a
                                        mock RAPL tree as the cap sink,
                                        print the survival report;
                                        --objective picks throughput |
                                        max-min | weighted, --tenants
                                        co-locates name:weight[:sla]
                                        groups on every node
  pbc faults list                       list every canned fault plan
  pbc rapl-status                       read real RAPL domains (Linux)
  pbc serve     [--port N] [--prom-port N] [--snapshot FILE] [--stream]
                                        run the coordination daemon:
                                        line protocol over TCP and stdin,
                                        optional Prometheus endpoint and
                                        streaming exporters; drains
                                        cleanly on stdin EOF or the
                                        `shutdown` verb (docs/SERVING.md)
  pbc serve-bench [-p PLATFORM] [-w BENCH] [--nodes N] [--workers N]
                [--pipeline N] [--duration-ms N] [--save FILE]
                                        load-test the daemon; report
                                        queries/sec and p50/p99/p999
                                        dispatch latency

Global options:
  --trace FILE    record spans and counters for the run and write them
                  to FILE as JSON lines (see docs/OBSERVABILITY.md)

PLATFORM: ivybridge | haswell | titan-xp | titan-v
BENCH:    see `pbc benchmarks`";

/// Remove `--trace FILE` from `argv`, returning the file when present.
/// Handled before command dispatch so every subcommand accepts it.
fn take_trace_flag(argv: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = argv.iter().position(|a| a == "--trace") else {
        return Ok(None);
    };
    if pos + 1 >= argv.len() {
        return Err("--trace needs a file path".to_string());
    }
    let path = argv.remove(pos + 1);
    argv.remove(pos);
    Ok(Some(path))
}

struct Args {
    platform: Option<String>,
    bench: Option<String>,
    budget: Option<f64>,
    budgets: Option<Vec<f64>>,
    save: Option<String>,
    host: Option<String>,
    card: Option<String>,
    host_bench: Option<String>,
    gpu_bench: Option<String>,
    gpu_share: Option<f64>,
    plan: Option<String>,
    seed: Option<u64>,
    epochs: Option<usize>,
    objective: Option<String>,
    tenants: Option<String>,
    port: Option<u16>,
    prom_port: Option<u16>,
    snapshot: Option<String>,
    stream: bool,
    nodes: Option<usize>,
    workers: Option<usize>,
    pipeline: Option<usize>,
    duration_ms: Option<u64>,
}

fn parse(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        platform: None,
        bench: None,
        budget: None,
        budgets: None,
        save: None,
        host: None,
        card: None,
        host_bench: None,
        gpu_bench: None,
        gpu_share: None,
        plan: None,
        seed: None,
        epochs: None,
        objective: None,
        tenants: None,
        port: None,
        prom_port: None,
        snapshot: None,
        stream: false,
        nodes: None,
        workers: None,
        pipeline: None,
        duration_ms: None,
    };
    let mut i = 0;
    while i < rest.len() {
        let take = |i: usize| -> Result<&String, String> {
            rest.get(i + 1).ok_or_else(|| format!("{} needs a value", rest[i]))
        };
        match rest[i].as_str() {
            "-p" | "--platform" => {
                args.platform = Some(take(i)?.clone());
                i += 2;
            }
            "-w" | "--workload" | "--bench" => {
                args.bench = Some(take(i)?.clone());
                i += 2;
            }
            "-b" | "--budget" => {
                // Accept a comma list (`-b 176,208,240`) for `curve`;
                // single-budget commands see `budget` only when exactly
                // one value was given.
                let list: Vec<f64> = take(i)?
                    .split(',')
                    .map(|v| v.trim().parse().map_err(|e| format!("bad budget {v:?}: {e}")))
                    .collect::<Result<_, _>>()?;
                if list.len() == 1 {
                    args.budget = Some(list[0]);
                }
                args.budgets = Some(list);
                i += 2;
            }
            "--save" => {
                args.save = Some(take(i)?.clone());
                i += 2;
            }
            "--host" => {
                args.host = Some(take(i)?.clone());
                i += 2;
            }
            "--card" => {
                args.card = Some(take(i)?.clone());
                i += 2;
            }
            "--host-bench" => {
                args.host_bench = Some(take(i)?.clone());
                i += 2;
            }
            "--gpu-bench" => {
                args.gpu_bench = Some(take(i)?.clone());
                i += 2;
            }
            "--gpu-share" => {
                args.gpu_share = Some(
                    take(i)?
                        .parse()
                        .map_err(|e| format!("bad gpu share: {e}"))?,
                );
                i += 2;
            }
            "--plan" => {
                args.plan = Some(take(i)?.clone());
                i += 2;
            }
            "--seed" => {
                args.seed = Some(
                    take(i)?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?,
                );
                i += 2;
            }
            "--epochs" => {
                args.epochs = Some(
                    take(i)?
                        .parse()
                        .map_err(|e| format!("bad epoch count: {e}"))?,
                );
                i += 2;
            }
            "--objective" => {
                args.objective = Some(take(i)?.clone());
                i += 2;
            }
            "--tenants" => {
                args.tenants = Some(take(i)?.clone());
                i += 2;
            }
            "--port" => {
                args.port =
                    Some(take(i)?.parse().map_err(|e| format!("bad port: {e}"))?);
                i += 2;
            }
            "--prom-port" => {
                args.prom_port =
                    Some(take(i)?.parse().map_err(|e| format!("bad prom port: {e}"))?);
                i += 2;
            }
            "--snapshot" => {
                args.snapshot = Some(take(i)?.clone());
                i += 2;
            }
            "--stream" => {
                args.stream = true;
                i += 1;
            }
            "--nodes" => {
                args.nodes =
                    Some(take(i)?.parse().map_err(|e| format!("bad node count: {e}"))?);
                i += 2;
            }
            "--workers" => {
                args.workers =
                    Some(take(i)?.parse().map_err(|e| format!("bad worker count: {e}"))?);
                i += 2;
            }
            "--pipeline" => {
                args.pipeline =
                    Some(take(i)?.parse().map_err(|e| format!("bad pipeline depth: {e}"))?);
                i += 2;
            }
            "--duration-ms" => {
                args.duration_ms =
                    Some(take(i)?.parse().map_err(|e| format!("bad duration: {e}"))?);
                i += 2;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn need<T>(v: Option<T>, what: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing {what}"))
}

fn run(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err(HELP.to_string());
    };
    let rest = &argv[1..];
    let e = |err: pbc_types::PbcError| err.to_string();
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(HELP.to_string()),
        "platforms" => Ok(pbc_cli::cmd_platforms()),
        "benchmarks" => Ok(pbc_cli::cmd_benchmarks()),
        "rapl-status" => Ok(pbc_cli::cmd_rapl_status()),
        "probe" => {
            let a = parse(rest)?;
            pbc_cli::cmd_probe(&need(a.platform, "-p PLATFORM")?, &need(a.bench, "-w BENCH")?)
                .map_err(e)
        }
        "coord" => {
            let a = parse(rest)?;
            pbc_cli::cmd_coord(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "sweep" => {
            let a = parse(rest)?;
            pbc_cli::cmd_sweep(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
                a.save.as_deref(),
            )
            .map_err(e)
        }
        "curve" => {
            let a = parse(rest)?;
            pbc_cli::cmd_curve(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                &need(a.budgets, "-b W1,W2,...")?,
            )
            .map_err(e)
        }
        "scenarios" => {
            let a = parse(rest)?;
            pbc_cli::cmd_scenarios(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "report" => {
            let a = parse(rest)?;
            pbc_cli::cmd_report(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "corun" => {
            let a = parse(rest)?;
            pbc_cli::cmd_corun(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w A,B")?,
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "hybrid" => {
            let a = parse(rest)?;
            pbc_cli::cmd_hybrid(
                &need(a.host, "--host CPU-PLATFORM")?,
                &need(a.card, "--card GPU-PLATFORM")?,
                &need(a.host_bench, "--host-bench BENCH")?,
                &need(a.gpu_bench, "--gpu-bench BENCH")?,
                a.gpu_share.unwrap_or(0.7),
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "online" => {
            let a = parse(rest)?;
            pbc_cli::cmd_online(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
            )
            .map_err(e)
        }
        "fastpath" => {
            let a = parse(rest)?;
            pbc_cli::cmd_fastpath(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                &need(a.budgets, "-b W1,W2,...")?,
            )
            .map_err(e)
        }
        "chaos" => {
            let a = parse(rest)?;
            pbc_cli::cmd_chaos(
                &need(a.platform, "-p PLATFORM")?,
                &need(a.bench, "-w BENCH")?,
                need(a.budget, "-b WATTS")?,
                a.plan.as_deref().unwrap_or("everything"),
                a.seed.unwrap_or(42),
                a.epochs.unwrap_or(200),
            )
            .map_err(e)
        }
        "cluster" => {
            let a = parse(rest)?;
            pbc_cli::cmd_cluster(
                &need(a.platform, "-p SPEC-FILE")?,
                need(a.budget, "-b WATTS")?,
                a.plan.as_deref().unwrap_or("calm"),
                a.seed.unwrap_or(42),
                a.epochs.unwrap_or(0),
                a.objective.as_deref().unwrap_or("throughput"),
                a.tenants.as_deref(),
            )
            .map_err(e)
        }
        "cluster-chaos" => {
            let a = parse(rest)?;
            pbc_cli::cmd_cluster_chaos(
                &need(a.platform, "-p SPEC-FILE")?,
                need(a.budget, "-b WATTS")?,
                a.plan.as_deref().unwrap_or("everything"),
                a.seed.unwrap_or(42),
                a.epochs.unwrap_or(0),
                a.objective.as_deref().unwrap_or("throughput"),
                a.tenants.as_deref(),
            )
            .map_err(e)
        }
        "serve" => {
            let a = parse(rest)?;
            run_serve(&a)
        }
        "serve-bench" => {
            let a = parse(rest)?;
            pbc_cli::cmd_serve_bench(
                a.platform.as_deref().unwrap_or("ivybridge"),
                a.bench.as_deref().unwrap_or("stream"),
                a.nodes.unwrap_or(1024),
                a.workers.unwrap_or(2),
                a.pipeline.unwrap_or(64),
                a.duration_ms.unwrap_or(1500),
                a.save.as_deref(),
            )
            .map_err(e)
        }
        "faults" => match rest.first().map(String::as_str) {
            Some("list") | None => Ok(pbc_cli::cmd_faults_list()),
            Some(other) => Err(format!("unknown faults subcommand {other}; try `pbc faults list`")),
        },
        other => Err(format!("unknown command {other}\n\n{HELP}")),
    }
}

/// The interactive daemon: TCP accept loop plus a stdin control
/// session. Responses to stdin requests go to stdout; the daemon drains
/// (finish in-flight, flush exporters) on stdin EOF, `quit` or
/// `shutdown` on stdin, or `shutdown` on any TCP connection, then
/// exits 0.
fn run_serve(a: &Args) -> Result<String, String> {
    use std::io::{BufRead as _, Write as _};

    let engine = std::sync::Arc::new(pbc_serve::ServeEngine::new());
    let mut exporters: Vec<Box<dyn pbc_serve::Exporter>> = Vec::new();
    if a.stream {
        exporters.push(Box::new(pbc_serve::JsonLinesExporter::new(
            std::io::stdout(),
        )));
    }
    if let Some(path) = &a.snapshot {
        exporters.push(Box::new(pbc_serve::TraceSnapshotExporter::new(
            std::path::PathBuf::from(path),
        )));
    }
    let config = pbc_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", a.port.unwrap_or(0)),
        prom_addr: a.prom_port.map(|p| format!("127.0.0.1:{p}")),
        exporters,
        ..pbc_serve::ServerConfig::default()
    };
    let mut server = pbc_serve::Server::start(std::sync::Arc::clone(&engine), config)
        .map_err(|e| format!("serve: could not start: {e}"))?;
    println!("listening {}", server.local_addr());
    if let Some(prom) = server.prom_addr() {
        println!("prometheus {prom}");
    }

    // The stdin session runs beside the TCP transport, so a `shutdown`
    // from either ends the daemon. It reports how it ended before it
    // requests the shutdown.
    let stdin_engine = std::sync::Arc::clone(&engine);
    let stop = server.shutdown_handle();
    let (ended, stdin_outcome) = std::sync::mpsc::channel();
    let stdin_loop = std::thread::Builder::new()
        .name("pbc-serve-stdin".into())
        .spawn(move || {
            let session = || -> Result<(), String> {
                let mut response = String::new();
                for line in std::io::stdin().lock().lines() {
                    let line = line.map_err(|e| format!("serve: stdin: {e}"))?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    let disposition = stdin_engine.dispatch_into(&line, &mut response);
                    if writeln!(std::io::stdout(), "{response}").is_err()
                        || disposition != pbc_serve::Disposition::Respond
                    {
                        break;
                    }
                }
                Ok(())
            };
            let _ = ended.send(session());
            stop.request();
        })
        .map_err(|e| format!("serve: could not start the stdin loop: {e}"))?;
    server.wait();
    let sessions = engine.session_count();
    server
        .drain()
        .map_err(|e| format!("serve: drain failed: {e}"))?;
    // After a TCP `shutdown` the stdin thread stays blocked in a read
    // nothing can interrupt; it is left to end with the process.
    if let Ok(outcome) = stdin_outcome.try_recv() {
        stdin_loop
            .join()
            .map_err(|_| "serve: the stdin loop panicked".to_string())?;
        outcome?;
    }
    Ok(format!("serve: drained cleanly ({sessions} sessions)"))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = match take_trace_flag(&mut argv) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if trace_path.is_some() {
        pbc_trace::enable();
    }
    let outcome = run(&argv);
    if let Some(path) = trace_path {
        pbc_trace::disable();
        if let Err(e) = pbc_trace::export(std::path::Path::new(&path)) {
            eprintln!("could not write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match outcome {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
