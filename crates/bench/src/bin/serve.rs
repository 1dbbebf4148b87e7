//! `serve` — stand up a networked decode service.
//!
//! ```text
//! serve [--tcp <host:port>] [--uds <path>] [--spec <file>]
//!       [--node <name>] [--max-inflight N] [--shards N]
//! ```
//!
//! Registers codes, binds a front-end, prints `LISTENING <addr>` on
//! stdout, and serves until **stdin reaches EOF** (the orchestration
//! convention: the parent closes the pipe to ask for a clean drain —
//! works identically under test harnesses, CI, and shells). On EOF the
//! front-end closes its connections, the service drains every accepted
//! request, and a final `DRAINED <submitted> <completed>` line reports
//! the accounting.
//!
//! With `--spec`, every cell of the campaign spec is registered under
//! its cell id (e.g. `gross|cc|p=0.02|bp:40@f64`) with the exact check
//! matrix, priors and decoder the in-process engine would use — the
//! server side of `campaign run --service`. Every decoder family is a
//! pure function of those inputs and the syndrome, so the served rows
//! equal the in-process ones. Without a spec, a demo
//! code `gross-z` (the `[[144,12,12]]` gross code, min-sum BP, 20
//! iterations) is registered for quickstarts and soak tests.

use qldpc_bp::{BpConfig, MinSumDecoder};
use qldpc_campaign::{cell_decoder_inputs, CampaignSpec};
use qldpc_decoder_api::DecoderFactory;
use qldpc_server::{DecodeService, FrontendConfig, NetFrontend, ServiceConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: serve [--tcp <host:port>] [--uds <path>] [--spec <file>]
             [--node <name>] [--max-inflight N] [--shards N]

Binds one front-end (default --tcp 127.0.0.1:0), prints LISTENING <addr>,
serves until stdin EOF, then drains and prints DRAINED <sub> <done>.
--spec registers every campaign cell (BP, BP-OSD and BP-SF alike) under
its cell id; otherwise the demo code 'gross-z' is registered.";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("serve: {message}");
    ExitCode::FAILURE
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = (|| -> Result<_, String> {
        let tcp = take_value(&mut args, "--tcp")?;
        let uds = take_value(&mut args, "--uds")?;
        let spec = take_value(&mut args, "--spec")?;
        let node = take_value(&mut args, "--node")?.unwrap_or_else(|| "node0".to_string());
        // A zero would leave the service unable to decode: no worker, or
        // every submission answered `RateLimited`.
        let mut count = |flag: &str| {
            take_value(&mut args, flag)?
                .map(|v| match v.parse::<usize>() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err(format!("{flag} needs a positive count, got '{v}'")),
                })
                .transpose()
        };
        let max_inflight = count("--max-inflight")?;
        let shards = count("--shards")?;
        Ok((tcp, uds, spec, node, max_inflight, shards))
    })();
    let (tcp, uds, spec, node, max_inflight, shards) = match parsed {
        Ok(p) => p,
        Err(e) => return fail(format!("{e}\n{USAGE}")),
    };
    if !args.is_empty() {
        return fail(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }
    if tcp.is_some() && uds.is_some() {
        return fail("--tcp and --uds are mutually exclusive (one front-end per process)");
    }

    let mut config = ServiceConfig::default();
    if let Some(shards) = shards {
        config.shards = shards;
    }

    let mut builder = DecodeService::builder();
    let mut registered = 0usize;
    match spec {
        Some(path) => {
            let spec = match CampaignSpec::from_file(path.as_ref()) {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            let cells = match spec.cells() {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            for cell in &cells {
                for (name, h, priors) in cell_decoder_inputs(&spec, cell) {
                    let cell_config = ServiceConfig {
                        precision: cell.precision,
                        ..config
                    };
                    builder.register_code_with(
                        &name,
                        &h,
                        &priors,
                        cell.decoder.factory(cell.precision),
                        cell_config,
                    );
                    registered += 1;
                }
            }
        }
        None => {
            let code = qldpc_codes::bb::gross_code();
            let hz = code.hz();
            let priors = vec![0.03; hz.cols()];
            let factory: DecoderFactory = Box::new(|h, priors| {
                let config = BpConfig {
                    max_iters: 20,
                    ..BpConfig::default()
                };
                Box::new(MinSumDecoder::new(h, priors, config))
            });
            builder.register_code_with("gross-z", hz, &priors, factory, config);
            registered = 1;
        }
    }
    let service = Arc::new(builder.start());

    let frontend_config = FrontendConfig {
        node,
        max_inflight: max_inflight.unwrap_or(FrontendConfig::default().max_inflight),
        ..FrontendConfig::default()
    };
    let (mut frontend, listening) = if let Some(path) = uds {
        let frontend = match NetFrontend::serve_uds(Arc::clone(&service), &path, frontend_config) {
            Ok(f) => f,
            Err(e) => return fail(format!("binding {path}: {e}")),
        };
        (frontend, path)
    } else {
        let addr = tcp.unwrap_or_else(|| "127.0.0.1:0".to_string());
        let frontend = match NetFrontend::serve_tcp(Arc::clone(&service), &addr, frontend_config) {
            Ok(f) => f,
            Err(e) => return fail(format!("binding {addr}: {e}")),
        };
        let bound = frontend.local_addr().expect("tcp front-end has an address");
        (frontend, bound.to_string())
    };

    println!("REGISTERED {registered}");
    println!("LISTENING {listening}");
    std::io::stdout().flush().expect("flush stdout");

    // Serve until the parent closes our stdin — the portable
    // SIGTERM-equivalent.
    let drained = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    if let Err(e) = drained {
        eprintln!("serve: reading stdin: {e}");
    }

    frontend.shutdown();
    let service = Arc::into_inner(service).expect("front-end released the service");
    let metrics = service.shutdown();
    let (submitted, completed): (u64, u64) = metrics
        .iter()
        .fold((0, 0), |(s, c), m| (s + m.submitted, c + m.completed));
    let drained = metrics.iter().all(|m| m.is_drained());
    println!("DRAINED {submitted} {completed}");
    std::io::stdout().flush().expect("flush stdout");
    if !drained || submitted != completed {
        eprintln!("serve: shutdown left undrained requests ({submitted} submitted, {completed} completed)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
