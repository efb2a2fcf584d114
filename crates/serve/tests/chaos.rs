//! Chaos-harness integration tests: the server under deterministic
//! fault injection.
//!
//! Every fault here is scripted through the [`FaultPlan`] keyed by
//! admission sequence number, so the same test run always injects the
//! same faults into the same jobs. The invariants under test are the
//! service's contract: a misbehaving job terminates as exactly one
//! structured `error` event, co-tenant jobs are untouched (bit-identical
//! to a fault-free run), admission rejections are immediate, and a
//! graceful drain completes every admitted job.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use rms_driver::OptLevel;
use rms_parallel::FaultPlan;
use rms_serve::json::{self, Value};
use rms_serve::{serve_lines, JobKind, JobRequest, Server, ServerConfig};

/// A tiny disulfide scission model; `salt` makes the content address
/// unique per test so parallel tests never share cache slots.
fn model(salt: &str) -> String {
    format!(
        r#"
        rate K_{salt} = 2;
        molecule DiS = "CSSC" init 1.0;
        rule scission {{
            site bond S ~ S order single;
            action disconnect;
            rate K_{salt};
        }}
        "#
    )
}

fn simulate_request(id: &str, tenant: &str, source: &str, deadline_ms: Option<u64>) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        tenant: tenant.to_string(),
        source: source.to_string(),
        observe: Vec::new(),
        kind: JobKind::Simulate {
            times: vec![0.2, 0.5],
        },
        deadline_ms,
        level: OptLevel::Full,
    }
}

/// Drain the event channel into parsed JSON values.
fn events(rx: &Receiver<String>) -> Vec<Value> {
    rx.try_iter()
        .map(|line| json::parse(&line).expect("well-formed event"))
        .collect()
}

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("event missing '{key}'"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("'{key}' not a string"))
}

/// The terminal (`result`/`error`) event for a job id.
fn terminal<'v>(evs: &'v [Value], id: &str) -> &'v Value {
    let mut found = evs.iter().filter(|e| {
        matches!(str_field(e, "event"), "result" | "error")
            && e.get("id").and_then(Value::as_str) == Some(id)
    });
    let first = found
        .next()
        .unwrap_or_else(|| panic!("no terminal event for job '{id}'"));
    assert!(
        found.next().is_none(),
        "job '{id}' produced more than one terminal event"
    );
    first
}

fn error_kind(ev: &Value) -> &str {
    assert_eq!(str_field(ev, "event"), "error");
    str_field(field(ev, "error"), "kind")
}

fn values_of(ev: &Value) -> Vec<f64> {
    field(ev, "values")
        .as_arr()
        .expect("values array")
        .iter()
        .map(|v| v.as_f64().expect("numeric value"))
        .collect()
}

#[test]
fn panicking_job_is_contained_and_co_tenants_are_unaffected() {
    let source = model("panic");
    // Reference run with no faults: what the healthy jobs must produce.
    let reference = {
        let server = Server::start(ServerConfig::default());
        let (tx, rx) = channel();
        server
            .submit(simulate_request("ref", "t", &source, None), tx)
            .unwrap();
        server.drain();
        values_of(terminal(&events(&rx), "ref"))
    };

    // Same jobs, but admission sequence number 1 panics on every call.
    let server = Server::start(ServerConfig {
        workers: 2,
        faults: Some(FaultPlan::new().panic_file(1)),
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    for (i, tenant) in [(0, "alice"), (1, "mallory"), (2, "bob")] {
        let req = simulate_request(&format!("j{i}"), tenant, &source, None);
        server.submit(req, tx.clone()).unwrap();
    }
    // The server keeps serving after the panic: a job admitted later
    // (sequence 3) still succeeds.
    std::thread::sleep(Duration::from_millis(50));
    server
        .submit(simulate_request("late", "carol", &source, None), tx.clone())
        .unwrap();
    let stats = server.drain();

    let evs = events(&rx);
    let panic_ev = terminal(&evs, "j1");
    assert_eq!(error_kind(panic_ev), "panicked");
    // The panic payload text survives into the structured event.
    assert!(
        str_field(field(panic_ev, "error"), "message").contains("injected panic"),
        "panic message not propagated"
    );
    for id in ["j0", "j2", "late"] {
        let ev = terminal(&evs, id);
        assert_eq!(str_field(ev, "event"), "result", "{id}");
        // Zero cross-job contamination: bit-identical to the
        // fault-free run.
        assert_eq!(values_of(ev), reference, "{id}");
    }
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.succeeded, 3);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.panicked, 1);
}

#[test]
fn blown_deadline_cancels_cleanly_as_a_structured_error() {
    let source = model("deadline");
    let server = Server::start(ServerConfig {
        workers: 1,
        // Sequence 0 stalls well past its deadline before the solve
        // starts; the watcher fires the cancel token during the stall
        // and the solver unwinds at its first step boundary.
        faults: Some(FaultPlan::new().stall_file(0, Duration::from_millis(120))),
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    server
        .submit(simulate_request("slow", "t", &source, Some(30)), tx.clone())
        .unwrap();
    server
        .submit(simulate_request("ok", "t", &source, Some(30_000)), tx)
        .unwrap();
    let stats = server.drain();

    let evs = events(&rx);
    assert_eq!(error_kind(terminal(&evs, "slow")), "deadline");
    assert_eq!(str_field(terminal(&evs, "ok"), "event"), "result");
    assert_eq!(stats.deadlines, 1);
    assert_eq!(stats.succeeded, 1);
}

#[test]
fn full_queue_rejects_immediately_without_losing_admitted_jobs() {
    let source = model("reject");
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        // Hold the single worker on the first job so the queue stays
        // full deterministically.
        faults: Some(FaultPlan::new().stall_file(0, Duration::from_millis(300))),
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    server
        .submit(simulate_request("held", "t", &source, None), tx.clone())
        .unwrap();
    // Wait for the worker to take the held job off the queue.
    while server.queue_depth() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    server
        .submit(simulate_request("q1", "t", &source, None), tx.clone())
        .unwrap();
    server
        .submit(simulate_request("q2", "t", &source, None), tx.clone())
        .unwrap();
    let rejected = server
        .submit(simulate_request("q3", "t", &source, None), tx.clone())
        .unwrap_err();
    assert_eq!(rejected.kind(), "rejected");

    let stats = server.drain();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.succeeded, 3, "admitted jobs all completed");
    let evs = events(&rx);
    for id in ["held", "q1", "q2"] {
        assert_eq!(str_field(terminal(&evs, id), "event"), "result", "{id}");
    }
    // A draining server rejects new work as `shutdown`.
    let server2 = Server::start(ServerConfig::default());
    let (tx2, _rx2) = channel::<String>();
    server2.close();
    let shutdown = server2
        .submit(simulate_request("late", "t", &source, None), tx2)
        .unwrap_err();
    assert_eq!(shutdown.kind(), "shutdown");
    assert_eq!(server2.drain().admitted, 0);
}

#[test]
fn concurrent_tenants_share_exactly_one_compile() {
    let source = model("shared_compile");
    let server = Server::start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    for (i, tenant) in ["alice", "bob", "carol", "dave"].iter().enumerate() {
        let req = simulate_request(&format!("c{i}"), tenant, &source, None);
        server.submit(req, tx.clone()).unwrap();
    }
    server.drain();

    let evs = events(&rx);
    let mut cold = 0;
    let mut reference: Option<Vec<f64>> = None;
    for i in 0..4 {
        let ev = terminal(&evs, &format!("c{i}"));
        assert_eq!(str_field(ev, "event"), "result");
        match str_field(ev, "cache") {
            "cold" => cold += 1,
            "memory" => {}
            other => panic!("unexpected cache status {other}"),
        }
        // Shared artifact, identical dynamics for every tenant.
        let values = values_of(ev);
        match &reference {
            Some(r) => assert_eq!(&values, r),
            None => reference = Some(values),
        }
    }
    // The compile happened exactly once; the three concurrent
    // same-model submissions waited on the in-flight build and hit the
    // memory cache.
    assert_eq!(cold, 1);
}

#[test]
fn graceful_drain_completes_every_admitted_job() {
    let source = model("drain");
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    for i in 0..6 {
        let req = simulate_request(&format!("d{i}"), &format!("t{}", i % 3), &source, None);
        server.submit(req, tx.clone()).unwrap();
    }
    // Drain immediately: jobs are still queued, none may be dropped.
    let stats = server.drain();
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.succeeded + stats.failed, 6);

    let evs = events(&rx);
    for i in 0..6 {
        let id = format!("d{i}");
        let accepted = evs
            .iter()
            .any(|e| str_field(e, "event") == "accepted" && str_field(e, "id") == id);
        assert!(accepted, "missing accepted event for {id}");
        terminal(&evs, &id);
    }
}

#[test]
fn estimate_jobs_report_objective_and_health() {
    let source = model("estimate").replace('\n', " ").replace('"', "\\\"");
    // Two files each; `workers` and the first file's times vary.
    let line = |id: &str, workers: u64, times: &str| {
        format!(
            r#"{{"id":"{id}","tenant":"acme","kind":"estimate","source":"{source}","workers":{workers},"files":[{{"label":"f0","times":{times},"values":[1.0,1.2]}},{{"label":"f1","times":[0.3,0.6],"values":[0.9,1.1]}}]}}"#
        )
    };
    let server = Server::start(ServerConfig::default());
    let (tx, rx) = channel();
    server.submit_line(&line("e0", 2, "[0.2,0.5]"), &tx);
    // A rank is an OS thread: a million requested over two files must run
    // as two, with the same result.
    server.submit_line(&line("many", 1_000_000, "[0.2,0.5]"), &tx);
    // Descending times never reach a worker (where `Penalize` would turn
    // the solver's refusal into a successful result).
    server.submit_line(&line("descending", 2, "[0.5,0.2]"), &tx);
    let stats = server.drain();

    let evs = events(&rx);
    let ev = terminal(&evs, "e0");
    assert_eq!(str_field(ev, "event"), "result");
    assert_eq!(str_field(ev, "kind"), "estimate");
    let objective = field(ev, "objective").as_f64().unwrap();
    assert!(objective.is_finite() && objective > 0.0);
    let health = field(ev, "health");
    assert_eq!(health.get("healthy").and_then(Value::as_bool), Some(true));
    assert_eq!(health.get("file_failures").and_then(Value::as_u64), Some(0));

    let many = terminal(&evs, "many");
    assert_eq!(str_field(many, "event"), "result");
    assert_eq!(field(many, "objective").as_f64(), Some(objective));
    assert_eq!(error_kind(terminal(&evs, "descending")), "invalid");
    assert_eq!(stats.admitted, 2);
}

/// A model nested 100,000 deep — in a rate expression or a site
/// predicate — used to run a worker off its stack, which aborted the
/// whole server and every co-tenant job. Now it is a compile error.
#[test]
fn a_model_nested_past_the_stack_is_a_compile_error_and_serving_goes_on() {
    let deep = 100_000;
    let deep_rate = model("deep_rate").replace(
        "rate K_deep_rate = 2;",
        &format!(
            "rate K_deep_rate = {}2{};",
            "(".repeat(deep),
            ")".repeat(deep)
        ),
    );
    let deep_site = model("deep_site").replace(
        "site bond S ~ S",
        &format!("site bond {}S{} ~ S", "(".repeat(deep), ")".repeat(deep)),
    );
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    for (id, source) in [
        ("rate", deep_rate),
        ("site", deep_site),
        ("ok", model("deep_ok")),
    ] {
        server
            .submit(simulate_request(id, "t", &source, None), tx.clone())
            .unwrap();
    }
    let stats = server.drain();
    let evs = events(&rx);
    for id in ["rate", "site"] {
        assert_eq!(error_kind(terminal(&evs, id)), "compile", "{id}");
    }
    assert_eq!(str_field(terminal(&evs, "ok"), "event"), "result");
    assert_eq!((stats.succeeded, stats.failed), (1, 2));
}

/// A variant range past the program's own `limit atoms` is refused before
/// a string of it is built. Before the limits bounded seeds, this
/// quickstart.rdl with `2..1000000` took the one worker and ran the
/// process out of memory, and the co-tenant's job behind it was never
/// answered (a deadline does not cover compilation).
#[test]
fn an_oversized_variant_range_is_a_compile_error_and_the_co_tenant_is_answered() {
    let quickstart = include_str!("../../../models/quickstart.rdl");
    let huge = quickstart.replace("for n in 2..4", "for n in 2..1000000");
    assert_ne!(huge, quickstart);
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (tx, rx) = channel();
    for job in [
        simulate_request("huge", "a", &huge, Some(1000)),
        simulate_request("ok", "b", &model("co_tenant"), None),
    ] {
        server.submit(job, tx.clone()).unwrap();
    }
    let stats = server.drain();
    let evs = events(&rx);
    assert_eq!(error_kind(terminal(&evs, "huge")), "compile");
    assert_eq!(str_field(terminal(&evs, "ok"), "event"), "result");
    assert_eq!((stats.succeeded, stats.failed), (1, 1));
}

#[test]
fn corrupt_disk_cache_entries_do_not_poison_jobs() {
    let dir = std::env::temp_dir().join(format!("rms-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = model("corrupt_cache");

    let run_once = |expect_id: &str| -> String {
        let server = Server::start(ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let (tx, rx) = channel();
        server
            .submit(simulate_request(expect_id, "t", &source, None), tx)
            .unwrap();
        server.drain();
        let evs = events(&rx);
        let ev = terminal(&evs, expect_id);
        assert_eq!(str_field(ev, "event"), "result", "{expect_id}");
        str_field(ev, "cache").to_string()
    };

    assert_eq!(run_once("first"), "cold");

    // Corrupt every on-disk artifact, then force the next job through
    // the disk path by clearing the memory layer. The job must still
    // succeed — quarantine + cold recompile, not an error.
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|x| x == "rmsc") {
            let mut bytes = std::fs::read(&path).expect("readable");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).expect("rewrite");
        }
    }
    rms_driver::cache::clear_memory();
    assert_eq!(run_once("after-corruption"), "cold");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn line_transport_streams_structured_events_for_a_mixed_batch() {
    let source = model("transport").replace('\n', " ");
    let good = format!(
        r#"{{"id":"g1","tenant":"a","source":"{}","times":[0.2,0.5]}}"#,
        source.replace('"', "\\\"")
    );
    let invalid_json = "{not json";
    let bad_species = format!(
        r#"{{"id":"g2","source":"{}","times":[0.5],"observe":["NoSuchSpecies"]}}"#,
        source.replace('"', "\\\"")
    );
    // An unknown level is refused at admission like any malformed field.
    let bad_level = format!(
        r#"{{"id":"g3","source":"{}","times":[0.5],"level":"turbo"}}"#,
        source.replace('"', "\\\"")
    );
    let input = format!("{good}\n{invalid_json}\n{bad_species}\n{bad_level}\n");

    let mut out: Vec<u8> = Vec::new();
    let stats =
        serve_lines(input.as_bytes(), &mut out, ServerConfig::default()).expect("transport io");

    let text = String::from_utf8(out).expect("utf8 events");
    let evs: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).expect("event line"))
        .collect();
    assert_eq!(str_field(terminal(&evs, "g1"), "event"), "result");
    assert_eq!(error_kind(terminal(&evs, "g2")), "invalid");
    assert_eq!(error_kind(terminal(&evs, "g3")), "invalid");
    assert!(!evs
        .iter()
        .any(|e| str_field(e, "event") == "accepted" && str_field(e, "id") == "g3"));
    // The unparseable line still produced a structured error (empty id).
    assert!(evs
        .iter()
        .any(|e| str_field(e, "event") == "error" && str_field(e, "id").is_empty()));
    // The stream ends with the drained summary.
    let last = evs.last().unwrap();
    assert_eq!(str_field(last, "event"), "drained");
    // g1 and g2 were both admitted (the unknown species only surfaces
    // in the worker); the unparseable line and g3 never were.
    assert_eq!(field(last, "admitted").as_u64(), Some(2));
    assert_eq!(stats.succeeded, 1);
}

/// `Sender` must be usable from many client threads at once; exercise
/// the full concurrent path: 8 clients, mixed tenants, one shared
/// server.
#[test]
fn eight_concurrent_clients_all_get_their_results() {
    let source = model("concurrent");
    let server = std::sync::Arc::new(Server::start(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    }));
    let mut clients = Vec::new();
    for c in 0..8 {
        let server = std::sync::Arc::clone(&server);
        let source = source.clone();
        clients.push(std::thread::spawn(move || {
            let (tx, rx): (Sender<String>, Receiver<String>) = channel();
            for j in 0..3 {
                let req =
                    simulate_request(&format!("c{c}-{j}"), &format!("tenant{c}"), &source, None);
                server.submit(req, tx.clone()).unwrap();
            }
            drop(tx);
            let mut results = 0;
            for line in rx {
                let ev = json::parse(&line).expect("event");
                if ev.get("event").and_then(Value::as_str) == Some("result") {
                    results += 1;
                }
                if results == 3 {
                    break;
                }
            }
            results
        }));
    }
    for client in clients {
        assert_eq!(client.join().expect("client thread"), 3);
    }
    let server = std::sync::Arc::into_inner(server).expect("sole owner");
    let stats = server.drain();
    assert_eq!(stats.admitted, 24);
    assert_eq!(stats.succeeded, 24);
}
