//! End-to-end smoke tests of the `planartest` binary: the `serve`
//! LDJSON loop and the `query` one-shot (run in the quick CI job).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use planartest_service::wire::Value;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_planartest"))
}

#[test]
fn serve_answers_ingest_query_and_cache_hit() {
    let mut child = bin()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let mut ask = |request: &str| -> Value {
        writeln!(stdin, "{request}").expect("write request");
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read response");
        Value::parse(line.trim()).expect("response parses")
    };

    // 1. Ingest a planar graph via generator spec.
    let ingested = ask(r#"{"op":"ingest","name":"city","spec":"tri_grid(6,6)"}"#);
    assert_eq!(ingested.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(ingested.get("n").unwrap().as_u64(), Some(36));

    // 2. Cold query: runs the engine, accepts.
    let query = r#"{"op":"query","graph":"city","epsilon":0.2,"phases":5,"seed":7}"#;
    let cold = ask(query);
    assert_eq!(cold.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(cold.get("verdict").unwrap().as_str(), Some("accept"));
    assert_eq!(cold.get("cache").unwrap().as_str(), Some("cold"));

    // 3. Same query again: warm cache hit, identical accounting.
    let warm = ask(query);
    assert_eq!(warm.get("cache").unwrap().as_str(), Some("warm"));
    assert_eq!(
        warm.get("rounds").unwrap().as_u64(),
        cold.get("rounds").unwrap().as_u64()
    );

    // Telemetry agrees: one engine pass, one warm hit.
    let stats = ask(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("engine_passes").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("warm_hits").unwrap().as_u64(), Some(1));

    // A malformed line answers an error instead of killing the server.
    let bad = ask("this is not json");
    assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));

    drop(stdin); // EOF ends the serve loop
    let status = child.wait().expect("serve exits");
    assert!(status.success());
}

#[test]
fn serve_answers_a_fully_piped_batch_before_exiting() {
    // The classic pipe usage: all requests written, stdin closed, THEN
    // the responses are read. Stdin EOF triggers the graceful
    // shutdown, which must flush every queued response to stdout —
    // stdout is not closed just because stdin is.
    let mut child = bin()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        writeln!(
            stdin,
            r#"{{"op":"ingest","name":"g","spec":"k5_chain(4)"}}"#
        )
        .unwrap();
        writeln!(
            stdin,
            r#"{{"op":"query","graph":"g","epsilon":0.05,"seed":1}}"#
        )
        .unwrap();
        writeln!(
            stdin,
            r#"{{"op":"query","graph":"g","epsilon":0.05,"seed":2}}"#
        )
        .unwrap();
        writeln!(stdin, r#"{{"op":"stats"}}"#).unwrap();
    } // dropped: EOF
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success());
    let lines: Vec<Value> = String::from_utf8(output.stdout)
        .expect("utf8 output")
        .lines()
        .map(|l| Value::parse(l).expect("response parses"))
        .collect();
    assert_eq!(lines.len(), 4, "one response per piped request");
    assert_eq!(lines[0].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(lines[1].get("verdict").unwrap().as_str(), Some("reject"));
    assert_eq!(lines[1].get("cache").unwrap().as_str(), Some("cold"));
    assert_eq!(lines[2].get("verdict").unwrap().as_str(), Some("reject"));
    // Timing decides whether both seeds landed in one cycle (coalesced
    // cold lanes of one pass) or two (the second replays the first's
    // certificate) — both are correct and both cost one engine pass.
    let second_cache = lines[2].get("cache").unwrap().as_str().unwrap();
    assert!(
        second_cache == "certificate" || (second_cache == "cold"),
        "unexpected cache provenance {second_cache}"
    );
    assert_eq!(lines[3].get("ok").unwrap().as_bool(), Some(true));
    assert!(lines[3].get("engine_passes").is_some());
}

#[test]
fn one_shot_query_accepts_and_rejects_via_exit_codes() {
    let accept = bin()
        .args([
            "query",
            "--spec",
            "grid(5,5)",
            "--epsilon",
            "0.2",
            "--phases",
            "5",
        ])
        .output()
        .expect("run query");
    assert!(accept.status.success(), "planar graph must exit 0");
    let response =
        Value::parse(String::from_utf8_lossy(&accept.stdout).trim()).expect("json output");
    assert_eq!(response.get("verdict").unwrap().as_str(), Some("accept"));

    let reject = bin()
        .args([
            "query",
            "--spec",
            "k5_chain(4)",
            "--epsilon",
            "0.05",
            "--phases",
            "5",
            // A removed flag older scripts still pass: accepted, ignored.
            "--backend",
            "serial",
        ])
        .output()
        .expect("run query");
    assert_eq!(reject.status.code(), Some(1), "far graph must exit 1");
    let response =
        Value::parse(String::from_utf8_lossy(&reject.stdout).trim()).expect("json output");
    assert_eq!(response.get("verdict").unwrap().as_str(), Some("reject"));

    let bad = bin().args(["query", "--spec", "nope(1)"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2), "bad spec must exit 2");

    let families = bin().arg("families").output().unwrap();
    assert!(families.status.success());
    let response =
        Value::parse(String::from_utf8_lossy(&families.stdout).trim()).expect("json output");
    assert!(!response
        .get("families")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
}
