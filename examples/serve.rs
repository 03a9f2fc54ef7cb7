//! Serving demo: one `tdfs-service` instance, two registered graphs,
//! concurrent clients running labeled and unlabeled queries, a
//! suspend/resume round-trip through a serialized checkpoint, then a
//! service metrics printout.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::Duration;

use tdfs::core::MatcherConfig;
use tdfs::graph::generators::{barabasi_albert, random_labels};
use tdfs::query::{Pattern, PatternId};
use tdfs::service::{QueryRequest, Rejected, Service, ServiceConfig};

fn main() {
    let svc = Arc::new(Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        plan_cache_capacity: 16,
        default_deadline: Some(Duration::from_secs(30)),
        ..ServiceConfig::default()
    }));

    // Tenant graphs: an unlabeled scale-free graph and a labeled one.
    let social = Arc::new(barabasi_albert(2000, 6, 42));
    let catalog = {
        let g = barabasi_albert(1500, 5, 7);
        let n = g.num_vertices();
        Arc::new(g.with_labels(random_labels(n, 4, 9)))
    };
    svc.register_graph("social", social);
    svc.register_graph("catalog", catalog);
    println!("registered graphs: {:?}", svc.catalog().names());

    // Concurrent clients: each submits its workload and waits on the
    // handles. `PatternId(12)` is a labeled diamond; the two triangle
    // submissions against the same graph share one cached plan.
    let clients: Vec<_> = [
        ("social", vec![PatternId(1).pattern(), Pattern::clique(3)]),
        ("social", vec![Pattern::clique(3), PatternId(3).pattern()]),
        ("catalog", vec![PatternId(12).pattern(), Pattern::path(4)]),
    ]
    .into_iter()
    .enumerate()
    .map(|(c, (graph, patterns))| {
        let svc = svc.clone();
        std::thread::spawn(move || {
            for p in patterns {
                let req = QueryRequest::new(graph, p.clone())
                    .with_config(MatcherConfig::tdfs().with_warps(2));
                match svc.submit(req) {
                    Ok(handle) => {
                        let out = handle.wait();
                        match out.result {
                            Ok(r) => println!(
                                "client {c}: {graph} / {}v{}e pattern -> {} matches in {:?}",
                                p.num_vertices(),
                                p.num_edges(),
                                r.matches,
                                out.latency
                            ),
                            Err(e) => println!("client {c}: query failed: {e}"),
                        }
                    }
                    Err(Rejected::QueueFull) => {
                        println!("client {c}: backpressure, shedding this query")
                    }
                    Err(e) => println!("client {c}: rejected: {e}"),
                }
            }
        })
    })
    .collect();
    for c in clients {
        c.join().unwrap();
    }

    // A query we abandon: cancel it right after submission and observe
    // the prompt partial completion.
    let handle = svc
        .submit(
            QueryRequest::new("social", PatternId(8).pattern())
                .with_config(MatcherConfig::tdfs().with_warps(2)),
        )
        .unwrap();
    handle.cancel();
    let out = handle.wait();
    println!(
        "cancelled query: cancelled={}, partial count {}",
        out.cancelled(),
        out.result.map(|r| r.matches).unwrap_or(0)
    );

    // Suspend/resume: checkpoint a running query to bytes, cancel the
    // original, and resume the image — the resumed query picks up the
    // already-acked shards' counts and finishes only the remainder. The
    // byte buffer could as well have crossed a process restart.
    let handle = svc
        .submit(
            QueryRequest::new("social", PatternId(8).pattern())
                .with_config(MatcherConfig::tdfs().with_warps(2)),
        )
        .unwrap();
    let id = handle.id();
    let checkpoint = loop {
        match svc.snapshot(id) {
            Ok(bytes) => break bytes,
            // Transient: still queued, or mid-handoff to its worker.
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    };
    handle.cancel();
    let _ = handle.wait();
    let resumed = svc.resume(&checkpoint).expect("valid checkpoint");
    let out = resumed.wait();
    println!(
        "suspended at {} bytes, resumed to {} matches",
        checkpoint.len(),
        out.result.map(|r| r.matches).unwrap_or(0)
    );

    let m = svc.metrics();
    println!("\n-- service metrics --\n{}", m.summary());
    // The traffic/dispatch axes explicitly: modeled bytes the lane
    // kernels touched, and how often the AVX2 path was taken (zero on
    // non-AVX2 hosts or under `TDFS_NO_SIMD`).
    println!(
        "warp bytes touched: {} ({:.3} MB)",
        m.engine.warp.bytes_touched,
        m.engine.warp.bytes_touched as f64 / (1 << 20) as f64
    );
    println!(
        "intersect dispatch: {} simd / {} scalar",
        m.simd_intersections, m.scalar_intersections
    );
    svc.shutdown();
}
