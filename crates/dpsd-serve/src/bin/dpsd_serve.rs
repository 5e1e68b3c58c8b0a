//! The `dpsd-serve` binary: host published synopses over HTTP.
//!
//! ```text
//! dpsd-serve [--addr 127.0.0.1:7878] [--cache-capacity N] [--threads N]
//!            [--tenant-cap name=eps ...] [--load name=path ...]
//! ```
//!
//! `--load` preloads artifacts (a `dpsd-bin/v1` blob or a JSON synopsis
//! — the format is sniffed) before the socket opens;
//! everything else is published over the wire with
//! `POST /synopses/{name}`. `--tenant-cap` installs a per-tenant
//! privacy budget cap before any preload, so preloads debit against it
//! like any other publish; caps are immutable once set.

use dpsd_core::exec::Parallelism;
use dpsd_serve::server::{ServeConfig, Server};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: dpsd-serve [--addr HOST:PORT] [--cache-capacity N] [--threads N] [--tenant-cap name=eps ...] [--load name=path ...]\n\
     \n\
     --addr            listen address (default 127.0.0.1:7878; port 0 = ephemeral)\n\
     --cache-capacity  query-cache entries, 0 disables (default 65536)\n\
     --threads         worker threads for batch queries (default: auto)\n\
     --tenant-cap      lifetime epsilon cap for a registry name (repeatable; immutable once set)\n\
     --load            preload an artifact file under a registry name (repeatable)"
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut preloads: Vec<(String, String)> = Vec::new();
    let mut tenant_caps: Vec<(String, f64)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{}", usage()))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => value_for("--addr").map(|v| addr = v),
            "--cache-capacity" => value_for("--cache-capacity").and_then(|v| {
                v.parse()
                    .map(|n| config.cache_capacity = n)
                    .map_err(|_| format!("bad --cache-capacity `{v}`"))
            }),
            "--threads" => value_for("--threads").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.parallelism = Parallelism::fixed(n))
                    .map_err(|_| format!("bad --threads `{v}`"))
            }),
            "--tenant-cap" => value_for("--tenant-cap").and_then(|v| match v.split_once('=') {
                Some((name, eps)) => match eps.parse::<f64>() {
                    Ok(cap) => {
                        tenant_caps.push((name.to_string(), cap));
                        Ok(())
                    }
                    Err(_) => Err(format!("bad --tenant-cap epsilon `{eps}`")),
                },
                None => Err(format!("--tenant-cap expects name=eps, got `{v}`")),
            }),
            "--load" => value_for("--load").and_then(|v| match v.split_once('=') {
                Some((name, path)) => {
                    preloads.push((name.to_string(), path.to_string()));
                    Ok(())
                }
                None => Err(format!("--load expects name=path, got `{v}`")),
            }),
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument `{other}`\n\n{}", usage())),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    }

    let server = match Server::bind(addr.as_str(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dpsd-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, cap) in &tenant_caps {
        match server.set_tenant_cap(name, *cap) {
            Ok(()) => eprintln!("dpsd-serve: tenant `{name}` capped at epsilon {cap}"),
            Err(e) => {
                eprintln!("dpsd-serve: cannot cap tenant `{name}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for (name, path) in &preloads {
        let artifact = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("dpsd-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match server.preload(name, &artifact) {
            Ok((name, version)) => eprintln!("dpsd-serve: loaded `{name}` v{version} from {path}"),
            Err(e) => {
                eprintln!("dpsd-serve: cannot publish {path} as `{name}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match server.local_addr() {
        Ok(bound) => eprintln!("dpsd-serve: listening on http://{bound}"),
        Err(e) => eprintln!("dpsd-serve: listening (address unavailable: {e})"),
    }
    if let Err(e) = server.run() {
        eprintln!("dpsd-serve: server failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
