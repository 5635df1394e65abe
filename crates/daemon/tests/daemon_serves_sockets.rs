//! End-to-end exercise of the `rvaas` daemon over real sockets: the HTTP
//! query API, concurrent TCP delta-sync sessions riding an epoch publish,
//! the Prometheus scrape, protocol-version negotiation and clean shutdown
//! — all in-process on ephemeral ports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rvaas_client::{
    decode_inband, read_frame, write_frame, InbandMessage, SyncPayload, SyncSession,
    SYNC_PROTOCOL_VERSION,
};
use rvaas_daemon::{json, Daemon, DaemonConfig};
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_types::{ClientId, SimTime, SwitchId};

fn started_daemon() -> Daemon {
    let mut config = DaemonConfig::default();
    config.set("topology", "line(4,2)").unwrap();
    config.set("workers", "2").unwrap();
    config.set("sync_listen", "127.0.0.1:0").unwrap();
    config.set("http_listen", "127.0.0.1:0").unwrap();
    Daemon::start(&config).unwrap()
}

/// One raw HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: rvaas\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads exactly one response off a persistent connection: headers, then
/// `Content-Length` body bytes — without waiting for EOF.
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF inside headers");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// Runs one sync exchange on an open connection and applies the response.
fn sync_roundtrip(stream: &mut TcpStream, session: &mut SyncSession, client: ClientId) {
    let request = session.request(client);
    write_frame(stream, &request.encode()).unwrap();
    let frame = read_frame(stream).unwrap().expect("server closed early");
    let InbandMessage::SyncResponse(response) = decode_inband(&frame).unwrap() else {
        panic!("expected a SyncResponse");
    };
    session.apply(&response).unwrap();
}

#[test]
fn daemon_serves_http_and_concurrent_sync_sessions_over_an_epoch_publish() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();
    let sync_addr = daemon.sync_addr().unwrap();

    // --- HTTP query API -------------------------------------------------
    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 1, "query": "isolation"}"#,
    );
    assert_eq!(status, 200, "query failed: {body}");
    let verdict = json::parse(&body).unwrap();
    assert_eq!(verdict.get("client").unwrap().as_int(), Some(1));
    assert_eq!(verdict.get("epoch_serial").unwrap().as_int(), Some(1));
    assert!(verdict.get("result").unwrap().get("isolated").is_some());

    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 1, "query": "seance"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown query"), "{body}");
    let (status, _) = http(http_addr, "GET", "/v1/query", "");
    assert_eq!(status, 405);
    let (status, _) = http(http_addr, "GET", "/v1/nonsense", "");
    assert_eq!(status, 404);

    // --- two concurrent sync sessions + concurrent HTTP queries ---------
    // Both connections stay open across the epoch publish; each issues its
    // baseline reset in its own thread while HTTP queries run alongside.
    let mut conn1 = TcpStream::connect(sync_addr).unwrap();
    let mut conn2 = TcpStream::connect(sync_addr).unwrap();
    let mut session1 = SyncSession::new();
    let mut session2 = SyncSession::new();
    std::thread::scope(|scope| {
        scope.spawn(|| sync_roundtrip(&mut conn1, &mut session1, ClientId(1)));
        scope.spawn(|| sync_roundtrip(&mut conn2, &mut session2, ClientId(2)));
        scope.spawn(|| {
            let (status, _) = http(
                http_addr,
                "POST",
                "/v1/query",
                r#"{"client": 2, "query": "neutrality"}"#,
            );
            assert_eq!(status, 200);
        });
    });
    assert_eq!(session1.serial(), 1);
    assert_eq!(session2.serial(), 1);

    // Publish epoch 2 through the daemon's service handle; both live
    // sessions must ride the delta (not a reset) to the new serial. Client
    // 1 holds a standing query so the delta re-verifies it — the epoch's
    // provenance record must account for exactly that.
    daemon
        .sync_server()
        .subscribe(ClientId(1), rvaas_client::QuerySpec::Isolation);
    let mut snapshot = daemon.service().store().current().snapshot.clone();
    snapshot.record_installed(
        SwitchId(1),
        FlowEntry::new(7, FlowMatch::to_ip(0x2000), vec![Action::Drop]),
        SimTime::from_millis(20),
    );
    let serial = daemon
        .service()
        .try_publish(&snapshot, SimTime::from_millis(20))
        .unwrap();
    assert_eq!(serial, 2);

    for (conn, session, client) in [
        (&mut conn1, &mut session1, ClientId(1)),
        (&mut conn2, &mut session2, ClientId(2)),
    ] {
        let request = session.request(client);
        write_frame(conn, &request.encode()).unwrap();
        let frame = read_frame(conn).unwrap().unwrap();
        let InbandMessage::SyncResponse(response) = decode_inband(&frame).unwrap() else {
            panic!("expected a SyncResponse");
        };
        assert!(
            matches!(response.payload, SyncPayload::Delta { .. }),
            "live session must get a delta, got {:?}",
            response.payload
        );
        session.apply(&response).unwrap();
        assert_eq!(session.serial(), 2);
    }

    // --- /v1/epoch reflects the publish ---------------------------------
    let (status, body) = http(http_addr, "GET", "/v1/epoch", "");
    assert_eq!(status, 200);
    let epoch = json::parse(&body).unwrap();
    assert_eq!(epoch.get("serial").unwrap().as_int(), Some(2));
    assert!(epoch.get("rules").unwrap().as_int().unwrap() > 0);

    // --- /v1/epoch/2/provenance audits the publish -----------------------
    // The record must carry the exact delta size and the re-verification
    // work the two sync sessions just observed: one rule added, one
    // standing query re-verified, two delta-serving sessions.
    let (status, body) = http(http_addr, "GET", "/v1/epoch/2/provenance", "");
    assert_eq!(status, 200, "{body}");
    let record = json::parse(&body).unwrap();
    assert_eq!(record.get("serial").unwrap().as_int(), Some(2));
    assert_eq!(record.get("added").unwrap().as_int(), Some(1));
    assert_eq!(record.get("delta_rules").unwrap().as_int(), Some(1));
    assert_eq!(
        record.get("reverified").unwrap().as_int(),
        Some(1),
        "one standing query rode the delta"
    );
    assert_eq!(record.get("reverify_sessions").unwrap().as_int(), Some(2));
    assert!(record.get("trace").unwrap().as_int().unwrap() > 0);
    let (status, _) = http(http_addr, "GET", "/v1/epoch/99/provenance", "");
    assert_eq!(status, 404);
    let (status, _) = http(http_addr, "GET", "/v1/epoch/seance/provenance", "");
    assert_eq!(status, 400);

    // --- /metrics parses and carries the daemon's counters --------------
    let (status, text) = http(http_addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let samples = rvaas_telemetry::parse_text(&text).unwrap();
    let value_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .value
    };
    assert!(
        value_of("rvaas_http_requests_total") >= 1.0,
        "the scrape observes itself"
    );
    assert!(value_of("rvaas_sync_sessions_total") >= 2.0);
    assert!(value_of("rvaas_queries_total") >= 1.0);

    // --- clean shutdown drains everything -------------------------------
    drop(conn1);
    drop(conn2);
    daemon.shutdown();
}

#[test]
fn http_queries_expose_causal_trace_chains_and_status() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();

    let (status, body) = http(
        http_addr,
        "POST",
        "/v1/query",
        r#"{"client": 3, "query": "isolation"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let verdict = json::parse(&body).unwrap();
    let trace = verdict.get("trace").unwrap().as_int().unwrap();
    assert!(trace > 0, "verdicts echo a trace id");

    // Fetch the chain by the echoed id: it must be causal — ingress first,
    // dispatch then eval in the middle, the verdict after, all under the
    // same trace id with monotone timestamps.
    let (status, body) = http(http_addr, "GET", &format!("/v1/trace/{trace}"), "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("trace").unwrap().as_int(), Some(trace));
    let Some(json::Json::Array(events)) = doc.get("events") else {
        panic!("trace export lost its events array: {body}");
    };
    let stages: Vec<&str> = events
        .iter()
        .map(|e| e.get("stage").unwrap().as_str().unwrap())
        .collect();
    let pos = |name: &str| {
        stages
            .iter()
            .position(|s| *s == name)
            .unwrap_or_else(|| panic!("{name} missing from chain {stages:?}"))
    };
    assert_eq!(pos("ingress.http"), 0, "ingress leads the chain");
    assert!(pos("ingress.http") < pos("pool.dispatch"));
    assert!(pos("pool.dispatch") < pos("pool.eval"));
    assert!(pos("pool.eval") < pos("verdict"));
    let times: Vec<u64> = events
        .iter()
        .map(|e| e.get("at_us").unwrap().as_int().unwrap())
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "timestamps must be monotone: {times:?}"
    );
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").unwrap().as_int().unwrap())
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq must be strictly increasing: {seqs:?}"
    );

    // Unknown and malformed trace ids.
    let (status, _) = http(http_addr, "GET", "/v1/trace/18446744073709551615", "");
    assert_eq!(status, 404);
    let (status, _) = http(http_addr, "GET", "/v1/trace/seance", "");
    assert_eq!(status, 400);

    // The slow-capture endpoint is well-formed even when nothing is slow.
    let (status, body) = http(http_addr, "GET", "/v1/trace/slow", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert!(doc.get("slow_threshold_us").unwrap().as_int().is_some());
    assert!(matches!(doc.get("retained"), Some(json::Json::Array(_))));

    // The health snapshot reflects the running daemon.
    let (status, body) = http(http_addr, "GET", "/v1/status", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("epoch_serial").unwrap().as_int(), Some(1));
    assert_eq!(doc.get("workers").unwrap().as_int(), Some(2));
    assert_eq!(
        doc.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let trace_info = doc.get("trace").unwrap();
    assert_eq!(trace_info.get("enabled"), Some(&json::Json::Bool(true)));
    assert!(trace_info.get("ring_capacity").unwrap().as_int().unwrap() > 0);

    // The scrape carries the connection gauge and the build-info marker.
    let (_, text) = http(http_addr, "GET", "/metrics", "");
    assert!(
        text.contains("rvaas_http_connections_active"),
        "active-connection gauge missing from scrape"
    );
    assert!(
        text.contains(concat!(
            "rvaas_build_info{version=\"",
            env!("CARGO_PKG_VERSION"),
            "\"} 1"
        )),
        "build info gauge missing from scrape"
    );

    daemon.shutdown();
}

#[test]
fn http_connections_persist_across_requests() {
    let daemon = started_daemon();
    let addr = daemon.http_addr().unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    // HTTP/1.1 defaults to keep-alive: several requests ride one socket.
    for _ in 0..2 {
        write!(stream, "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200);
        assert!(body.contains("\"serial\""), "{body}");
    }
    // Pipelining: two queries in one write are both answered, in order.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let query = |client: u32| {
        let body = format!(r#"{{"client": {client}, "query": "isolation"}}"#);
        format!(
            "POST /v1/query HTTP/1.1\r\nHost: rvaas\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    stream
        .write_all(format!("{}{}", query(1), query(2)).as_bytes())
        .unwrap();
    for client in [1, 2] {
        let (status, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains(&format!("\"client\":{client}")), "{body}");
    }
    // Asking to close is honoured: response arrives, then EOF.
    write!(
        stream,
        "GET /v1/epoch HTTP/1.1\r\nHost: rvaas\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");
    daemon.shutdown();
}

#[test]
fn rules_file_seeds_the_initial_epoch() {
    let path = std::env::temp_dir().join(format!("rvaas-rules-{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "# seed: one tenant route plus a blanket filter\n\
         1 400 src=10.0.0.1 dst=10.0.0.3 output:2\n\
         2 400 drop\n",
    )
    .unwrap();
    let mut config = DaemonConfig::default();
    config.set("topology", "line(4,2)").unwrap();
    config.set("workers", "1").unwrap();
    config.set("rules_file", path.to_str().unwrap()).unwrap();
    let daemon = Daemon::start(&config).unwrap();
    assert_eq!(
        daemon.service().store().current().snapshot.rule_count(),
        2,
        "the epoch holds exactly the file's rules, not the benign routing"
    );
    daemon.shutdown();

    // A missing or malformed rules file is a config error at start.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        Daemon::start(&config),
        Err(rvaas_service::ServiceError::Config(_))
    ));
}

#[test]
fn unsupported_sync_version_is_answered_with_a_reject_frame() {
    let daemon = started_daemon();
    let mut stream = TcpStream::connect(daemon.sync_addr().unwrap()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // A valid request with the version byte bumped to a future major.
    let mut payload = SyncSession::new().request(ClientId(1)).encode();
    payload[1] = 0x20;
    write_frame(&mut stream, &payload).unwrap();
    let frame = read_frame(&mut stream).unwrap().expect("no reject frame");
    let InbandMessage::SyncReject(reject) = decode_inband(&frame).unwrap() else {
        panic!("expected a SyncReject");
    };
    assert_eq!(reject.supported, SYNC_PROTOCOL_VERSION);
    assert_eq!(reject.got, 0x20);
    // The server hangs up after rejecting.
    assert!(read_frame(&mut stream).unwrap().is_none());
    daemon.shutdown();
}

#[test]
fn shutdown_stops_accepting_new_connections() {
    let daemon = started_daemon();
    let http_addr = daemon.http_addr().unwrap();
    let sync_addr = daemon.sync_addr().unwrap();
    let (status, _) = http(http_addr, "GET", "/v1/epoch", "");
    assert_eq!(status, 200);
    daemon.shutdown();
    assert!(
        TcpStream::connect(http_addr).is_err(),
        "http listener must be closed after shutdown"
    );
    assert!(
        TcpStream::connect(sync_addr).is_err(),
        "sync listener must be closed after shutdown"
    );
}
