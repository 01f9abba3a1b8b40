//! Observability smoke: a real gateway on loopback sockets, a closed
//! request loop, and then the three observability surfaces exercised
//! over the wire — `/events` must stream well-formed telemetry frames,
//! `/flightrecord` must replay the request lifecycle as JSONL (with
//! the Eq. 3 inputs on every edge decision), and the router must
//! answer unknown paths, malformed request lines, and non-GET methods
//! with proper HTTP errors instead of the `/metrics` body.
//!
//! The flight-record dump is also written to `CARGO_TARGET_TMPDIR` so
//! CI can upload it as a build artifact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pard_engine_api::{Backend, ClusterConfig, EngineBuilder};
use pard_gateway::client::{CallSpec, Client};
use pard_gateway::{Gateway, GatewayConfig};
use pard_pipeline::AppKind;
use pard_sim::SimDuration;

fn sim_gateway() -> Gateway {
    let engine = EngineBuilder::for_app(AppKind::Tm)
        .build(Backend::Sim(
            ClusterConfig::default()
                .with_seed(11)
                .with_fixed_workers(vec![2; 3]),
        ))
        .expect("builtin models resolve from the zoo");
    Gateway::start(
        engine,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            telemetry_period: Duration::from_millis(20),
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds ephemeral ports")
}

/// One-shot HTTP exchange: sends `head` verbatim, returns the whole
/// response (status line + headers + body).
fn http_raw(addr: SocketAddr, head: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("observability listener reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(head.as_bytes()).expect("send request");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    http_raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

#[test]
fn events_flightrecord_and_router_smoke() {
    let gateway = sim_gateway();
    let mut client = Client::connect(gateway.addr()).expect("client connects");

    // Closed loop: one outstanding request at a time, so the stepped
    // backend's outcomes are deterministic. Every fourth request
    // carries a hopeless 1 ms SLO to force edge rejections into the
    // flight record.
    for i in 0..40u64 {
        let mut spec = CallSpec::new("tm");
        if i % 4 == 3 {
            spec.slo_ms = Some(1);
        }
        let seq = client.send(&spec).expect("send");
        client
            .wait(seq, Duration::from_secs(30))
            .expect("request answered");
    }

    // `/events`: subscribe and require at least two well-formed frames
    // (the sampler publishes every 20 ms here, so two arrive fast).
    let stream = TcpStream::connect(gateway.metrics_addr()).expect("events reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sse = stream.try_clone().unwrap();
    sse.write_all(b"GET /events HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(status.starts_with("HTTP/1.1 200"), "got: {status}");
    assert!(http_headers(&mut reader).contains("text/event-stream"));
    let mut frames: Vec<String> = Vec::new();
    while frames.len() < 2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("sse frame");
        let Some(json) = line.strip_prefix("data: ") else {
            continue;
        };
        let json = json.trim();
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "not a JSON object: {json}"
        );
        for key in [
            "\"seq\":",
            "\"t_us\":",
            "\"queues\":",
            "\"workers\":",
            "\"pending\":",
            "\"floor_lead_us\":",
            "\"drops_by_reason\":",
            "\"window_goodput\":",
            "\"rtt_us\":",
        ] {
            assert!(json.contains(key), "frame missing {key}: {json}");
        }
        frames.push(json.to_string());
    }
    drop(reader);

    // Frames carry the traffic we just generated: completions and
    // edge rejections both visible.
    let last = frames.last().unwrap();
    assert!(last.contains("\"received\":40"), "frame: {last}");
    assert!(last.contains("\"rejected\":10"), "frame: {last}");
    assert!(last.contains("\"completed_ok\":"), "frame: {last}");

    // `/flightrecord`: a JSONL replay of the lifecycle — edge
    // decisions with their Eq. 3 inputs, per-module stage timings,
    // completions.
    let response = http_get(gateway.metrics_addr(), "/flightrecord");
    let (head, payload) = response.split_once("\r\n\r\n").expect("response body");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    let lines: Vec<&str> = payload.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "flight record is empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
        assert!(line.contains("\"kind\":"), "event without kind: {line}");
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"kind\":\"edge\"") && l.contains("\"decision\":\"admit\"")),
        "no admitted edge decision recorded"
    );
    let rejection = lines
        .iter()
        .find(|l| l.contains("\"decision\":\"drop\""))
        .expect("no edge rejection recorded despite hopeless SLOs");
    for key in [
        "\"lead_us\":",
        "\"sub_us\":",
        "\"slack_us\":",
        "\"reason\":",
    ] {
        assert!(rejection.contains(key), "rejection missing {key}");
    }
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"stage\"")),
        "no stage event recorded"
    );
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"done\"")),
        "no completion event recorded"
    );

    // The dump is in emission order, and the gateway records each
    // admission before any thread can step the request, so every
    // admitted request reads edge → stage → done.
    let req_of = |line: &str| -> u64 {
        let rest = &line[line.find("\"req\":").expect("req field") + "\"req\":".len()..];
        rest[..rest.find(',').expect("field sep")]
            .parse()
            .expect("req number")
    };
    let position = |req: u64, kind: &str| {
        lines
            .iter()
            .position(|l| req_of(l) == req && l.contains(&format!("\"kind\":\"{kind}\"")))
    };
    let admitted: Vec<u64> = lines
        .iter()
        .filter(|l| l.contains("\"decision\":\"admit\""))
        .map(|l| req_of(l))
        .collect();
    assert_eq!(
        admitted.len(),
        30,
        "every admitted request has an edge line"
    );
    for req in admitted {
        let edge = position(req, "edge").expect("edge line");
        let stage = position(req, "stage").expect("stage line");
        let done = position(req, "done").expect("done line");
        assert!(
            edge < stage && edge < done,
            "request {req}: edge at line {edge}, first stage at {stage}, done at {done}"
        );
    }

    // A bounded dump returns exactly the events from the last N µs of
    // *recorded virtual time*. (Not a ticket-order suffix: a gateway
    // reader thread records an admitted request's edge decision — an
    // older virtual timestamp — racing the worker that records its
    // completion, so the tail of ticket order and the tail of virtual
    // time can differ.)
    let bounded = http_get(gateway.metrics_addr(), "/flightrecord?last_us=1");
    let (head, tail_payload) = bounded.split_once("\r\n\r\n").expect("response body");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    let tail: Vec<&str> = tail_payload.lines().filter(|l| !l.is_empty()).collect();
    let t_of = |line: &str| -> u64 {
        let rest = &line[line.find("\"t_us\":").expect("t_us field") + "\"t_us\":".len()..];
        rest[..rest.find(',').expect("field sep")]
            .parse()
            .expect("t_us number")
    };
    let newest = lines.iter().map(|l| t_of(l)).max().expect("nonempty dump");
    let expected: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| t_of(l) >= newest - 1)
        .collect();
    assert_eq!(
        tail, expected,
        "bounded dump must equal the timestamp-filtered full dump"
    );

    // Persist the dump where CI uploads artifacts from.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-smoke");
    std::fs::create_dir_all(&dir).expect("artifact dir");
    std::fs::write(dir.join("flightrecord.jsonl"), payload).expect("write dump artifact");

    // Router contract: proper errors, not the /metrics body.
    assert!(http_get(gateway.metrics_addr(), "/nope").starts_with("HTTP/1.1 404"));
    assert!(
        http_raw(gateway.metrics_addr(), "this is not http at all\r\n\r\n")
            .starts_with("HTTP/1.1 400")
    );
    assert!(
        http_raw(gateway.metrics_addr(), "POST /metrics HTTP/1.1\r\n\r\n")
            .starts_with("HTTP/1.1 405")
    );

    // `/metrics` still works on the same listener and now carries the
    // RTT summary family.
    let metrics = http_get(gateway.metrics_addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "got: {metrics}");
    assert!(metrics.contains("pard_gateway_received_total 40"));
    for quantile in ["0.5", "0.95", "0.99"] {
        assert!(
            metrics.contains(&format!("pard_gateway_rtt_us{{quantile=\"{quantile}\"}}")),
            "missing rtt quantile {quantile}"
        );
    }

    let _ = gateway.shutdown(SimDuration::from_secs(1));
}

/// Reads and returns the response header block (after the status line).
fn http_headers(reader: &mut BufReader<TcpStream>) -> String {
    let mut headers = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" || line == "\n" || line.is_empty() {
            return headers;
        }
        headers.push_str(&line);
    }
}
