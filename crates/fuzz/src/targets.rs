//! The fuzz targets: one function per untrusted-input surface.
//!
//! Every target upholds the same contract on **arbitrary** bytes:
//!
//! * no panic (errors must be `Result`s, not `unwrap`s deep in a decoder),
//! * no input-controlled allocation beyond the input's own size (the
//!   allocate-before-validate class), and
//! * where the surface has an encoder, the parse → encode → parse
//!   fixpoint: re-encoding a successfully parsed value yields bytes that
//!   parse to the same value.
//!
//! The cube target is different in kind: its bytes are a little *program*
//! of rule-table operations, and its properties are differential — the
//! incremental update path must agree with a from-scratch rebuild, and the
//! cube algebra must be consistent with sampled-header membership.

use rvaas_client::{
    decode_inband, read_frame, write_frame, FrameError, InbandMessage, MAX_FRAME_LEN,
};
use rvaas_daemon::{http, json, parse_rules, DaemonConfig};
use rvaas_hsa::{Cube, HeaderSpace, RuleAction, RuleTransfer, SwitchTransfer};
use rvaas_types::{Field, FlowCookie, Header, PortId};

use crate::Target;

/// Name → function for every shipped target (used by tests and the CLI).
pub const TARGETS: &[(&str, Target)] = &[
    ("frame", frame_target),
    ("sync", sync_target),
    ("http", http_target),
    ("json", json_target),
    ("cube", cube_target),
    ("config", config_target),
    ("trace", trace_target),
];

/// Looks a target up by name.
#[must_use]
pub fn find_target(name: &str) -> Option<Target> {
    TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, target)| *target)
}

/// Length-prefixed frame decoder: arbitrary bytes as a TCP byte stream.
///
/// Properties: decoded payloads respect the 16 MiB guard *and* the input's
/// own length (no allocate-before-validate); a decoded payload re-framed
/// by `write_frame` decodes back byte-identically.
pub fn frame_target(data: &[u8]) {
    let mut stream = data;
    // A stream may hold many frames; bound the walk by the input length.
    for _ in 0..=data.len() {
        match read_frame(&mut stream) {
            Ok(None) => break, // clean EOF
            Ok(Some(payload)) => {
                assert!(payload.len() <= MAX_FRAME_LEN, "guard violated");
                assert!(payload.len() <= data.len(), "payload invented bytes");
                let mut reframed = Vec::new();
                write_frame(&mut reframed, &payload).expect("re-framing a valid payload");
                let echoed = read_frame(&mut reframed.as_slice())
                    .expect("re-reading a written frame")
                    .expect("written frame is not EOF");
                assert_eq!(echoed, payload, "frame round-trip changed the payload");
            }
            Err(FrameError::Oversized { len }) => {
                assert!(len > MAX_FRAME_LEN, "oversized error for in-bounds length");
                break;
            }
            Err(_) => break, // torn or I/O: fine, just must not panic
        }
    }
}

/// Re-encodes a decoded in-band message through its variant's encoder.
fn encode_inband(message: &InbandMessage) -> Vec<u8> {
    match message {
        InbandMessage::Query(m) => m.encode(),
        InbandMessage::AuthRequest(m) => m.encode(),
        InbandMessage::AuthReply(m) => m.encode(),
        InbandMessage::Reply(m) => m.encode(),
        InbandMessage::SyncRequest(m) => m.encode(),
        InbandMessage::SyncResponse(m) => m.encode(),
        InbandMessage::SyncReject(m) => m.encode(),
    }
}

/// In-band sync/query codec: arbitrary bytes as one message payload.
///
/// Properties: decode never panics; a decoded message re-encodes to bytes
/// that decode again and re-encode to the *same* bytes (the encode side of
/// the fixpoint — byte equality avoids requiring `Eq` on every message).
pub fn sync_target(data: &[u8]) {
    let Ok(message) = decode_inband(data) else {
        return;
    };
    let encoded = encode_inband(&message);
    // The codecs validate element counts against remaining bytes, so a
    // decoded message can never be larger than its wire form plus fixed
    // per-message overhead. A blow-up here means a count guard regressed.
    assert!(
        encoded.len() <= data.len().saturating_mul(2) + 64,
        "re-encoded message ({} bytes) dwarfs its wire form ({} bytes)",
        encoded.len(),
        data.len()
    );
    let redecoded = decode_inband(&encoded).expect("re-encoded message must decode");
    assert_eq!(
        encode_inband(&redecoded),
        encoded,
        "encode → decode → encode is not a fixpoint"
    );
}

/// Daemon HTTP request parser: arbitrary bytes as one connection's data.
///
/// Properties: parse never panics; a parsed request re-rendered in
/// canonical form re-parses to the same method, target and body; and two
/// pipelined copies of that rendering read back from one reader as two
/// equal requests, leaving the reader idle-quiet.
pub fn http_target(data: &[u8]) {
    let request = match http::read_request(&mut &data[..]) {
        Ok(Some(request)) => request,
        Ok(None) | Err(_) => return, // idle-quiet or malformed: must not panic
    };
    assert!(request.body.len() <= data.len(), "body invented bytes");
    let canonical = format!(
        "{} {} HTTP/1.1\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n{}",
        request.method,
        request.target,
        request.body.len(),
        if request.close { "close" } else { "keep-alive" },
        request.body
    );
    let reparsed = http::read_request(&mut canonical.as_bytes())
        .expect("canonical re-render must re-parse")
        .expect("canonical re-render is not idle-quiet");
    assert_eq!(reparsed, request, "HTTP round-trip changed the request");
    let pipelined = canonical.repeat(2);
    let mut reader = pipelined.as_bytes();
    for _ in 0..2 {
        let next = http::read_request(&mut reader)
            .expect("pipelined request must parse")
            .expect("pipelined request is not idle-quiet");
        assert_eq!(next, request, "pipelining changed a request");
    }
    assert_eq!(
        http::read_request(&mut reader),
        Ok(None),
        "reading a request consumed bytes past its body"
    );

    // The router's segment splitter must survive whatever target the
    // request smuggled in, and never invent path material.
    let segments = http::path_segments(&request.target);
    assert!(
        segments.iter().map(|s| s.len()).sum::<usize>() <= request.target.len(),
        "segments invented bytes"
    );
    for segment in segments {
        assert!(!segment.is_empty(), "empty segments must be dropped");
        assert!(!segment.contains('/'), "segments must not contain slashes");
    }
}

/// Renders a parsed JSON value back to source text.
fn render_json(value: &json::Json) -> String {
    match value {
        json::Json::Null => "null".to_string(),
        json::Json::Bool(b) => b.to_string(),
        json::Json::Int(n) => n.to_string(),
        json::Json::Str(s) => json::quote(s),
        json::Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", inner.join(","))
        }
        json::Json::Object(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}:{}", json::quote(k), render_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Daemon JSON codec: arbitrary bytes as request-body text.
///
/// Properties: parse never panics and never recurses past the depth cap;
/// a parsed value rendered back through `quote` re-parses to an equal
/// value (escape handling is symmetric).
pub fn json_target(data: &[u8]) {
    let Ok(text) = std::str::from_utf8(data) else {
        return;
    };
    let Ok(value) = json::parse(text) else {
        return;
    };
    let rendered = render_json(&value);
    let reparsed = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("render of a parsed value must re-parse: {e}\n{rendered}"));
    assert_eq!(reparsed, value, "JSON round-trip changed the value");
}

/// Renders one config value the way [`DaemonConfig::parse`] will read it
/// back: values are stored verbatim after comment stripping and a single
/// unquote pass, so only a value that *starts* with a quote needs to be
/// re-wrapped to survive another unquote.
fn render_config_value(value: &str) -> String {
    if value.starts_with('"') {
        format!("\"{value}\"")
    } else {
        value.to_string()
    }
}

/// Renders a parsed daemon config back to canonical file form.
fn render_config(config: &DaemonConfig) -> String {
    let mut out = format!("topology = {}\n", render_config_value(&config.topology));
    if let Some(path) = &config.rules_file {
        out.push_str(&format!("rules_file = {}\n", render_config_value(path)));
    }
    let service = &config.service;
    out.push_str(&format!("workers = {}\n", service.workers));
    out.push_str(&format!(
        "cache = {}\n",
        if service.cache { "on" } else { "off" }
    ));
    out.push_str(&format!(
        "incremental = {}\n",
        if service.incremental { "on" } else { "off" }
    ));
    out.push_str(&format!(
        "max_delta_history = {}\n",
        service.max_delta_history
    ));
    out.push_str(&format!(
        "trace_ring_capacity = {}\n",
        service.trace_ring_capacity
    ));
    out.push_str(&format!(
        "slow_query_threshold_us = {}\n",
        service.slow_query_threshold_us
    ));
    if let Some(addr) = &service.sync_listen {
        out.push_str(&format!("sync_listen = {}\n", render_config_value(addr)));
    }
    if let Some(addr) = &service.http_listen {
        out.push_str(&format!("http_listen = {}\n", render_config_value(addr)));
    }
    out
}

/// Daemon TOML-subset config parser (every `ServiceSettings::set` path)
/// plus the rules-file parser behind the `rules_file` key: arbitrary bytes
/// as file text.
///
/// Properties: neither parser panics on arbitrary (lossily decoded) text;
/// a successfully parsed config re-rendered in canonical `key = value`
/// form re-parses to an equal config (comment stripping, section headers
/// and unquoting are all absorbed by one parse); a successfully parsed
/// rules file never yields more entries than it has lines.
pub fn config_target(data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    if let Ok(config) = DaemonConfig::parse(&text) {
        let canonical = render_config(&config);
        let reparsed = DaemonConfig::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical re-render must re-parse: {e}\n{canonical}"));
        assert_eq!(reparsed, config, "config round-trip changed a setting");
    }
    if let Ok(rules) = parse_rules(&text) {
        assert!(
            rules.len() <= text.lines().count(),
            "rules parser invented entries"
        );
    }
}

/// Flight-recorder JSON export: arbitrary bytes as a recorder "program"
/// plus an adversarial request target.
///
/// Properties: the router's path splitter never panics on arbitrary
/// targets (hostile trace ids and serials arrive as path segments); a
/// recorder driven through arbitrary appends and captures renders — via
/// the daemon's real `render_trace` / `render_retained` — to JSON that
/// re-parses, preserves the event count, and echoes each event's trace id.
pub fn trace_target(data: &[u8]) {
    use rvaas_telemetry::{CaptureReason, FlightRecorder, TraceStage};

    // Adversarial path handling first: whatever bytes decode to, the
    // splitter must cope (the daemon feeds it raw request targets).
    if let Ok(target) = std::str::from_utf8(data) {
        for segment in http::path_segments(target) {
            let _ = segment.parse::<u64>(); // the router's id/serial parse
        }
    }

    let mut dna = Dna::new(data);
    let capacity = 8 + usize::from(dna.byte()) % 64;
    let recorder = FlightRecorder::with_capacity(capacity, u64::from(dna.u16()));
    let traces: Vec<_> = (0..4).map(|_| recorder.mint()).collect();
    for _ in 0..usize::from(dna.byte()) % 64 {
        let trace = traces[usize::from(dna.byte()) % traces.len()];
        if dna.byte() % 8 == 7 {
            let reason = if dna.byte().is_multiple_of(2) {
                CaptureReason::Error
            } else {
                CaptureReason::Slow {
                    latency_us: u64::from(dna.u32()),
                }
            };
            recorder.capture(trace, reason);
        } else {
            let stage = TraceStage::from_code(u64::from(dna.byte() % 15) + 1)
                .expect("codes 1..=15 are valid stages");
            recorder.append(trace, stage, u64::from(dna.u32()), u64::from(dna.u32()));
        }
    }
    for trace in &traces {
        let chain = recorder.chain(*trace);
        let rendered = json::render_trace(trace.0, &chain);
        let doc = json::parse(&rendered)
            .unwrap_or_else(|e| panic!("trace render must re-parse: {e}\n{rendered}"));
        assert_eq!(doc.get("trace").and_then(json::Json::as_int), Some(trace.0));
        let Some(json::Json::Array(events)) = doc.get("events") else {
            panic!("rendered trace lost its events array:\n{rendered}");
        };
        assert_eq!(events.len(), chain.len(), "render changed the event count");
    }
    let retained = recorder.retained();
    let rendered = json::render_retained(&retained, recorder.slow_threshold_us());
    let doc = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("retained render must re-parse: {e}\n{rendered}"));
    let Some(json::Json::Array(captures)) = doc.get("retained") else {
        panic!("rendered retained set lost its array:\n{rendered}");
    };
    assert_eq!(
        captures.len(),
        retained.len(),
        "render changed the capture count"
    );
}

/// A byte-stream "DNA" the cube target decodes into rules and headers.
/// Reads wrap around, so any input length yields a complete program.
struct Dna<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dna<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dna { bytes, pos: 0 }
    }

    fn byte(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn u16(&mut self) -> u16 {
        u16::from_be_bytes([self.byte(), self.byte()])
    }

    fn u32(&mut self) -> u32 {
        u32::from_be_bytes([self.byte(), self.byte(), self.byte(), self.byte()])
    }

    fn header(&mut self) -> Header {
        Header {
            eth_type: self.u16(),
            vlan: self.u16() & 0x0fff,
            ip_src: self.u32(),
            ip_dst: self.u32(),
            ip_proto: self.byte(),
            l4_src: self.u16(),
            l4_dst: self.u16(),
        }
    }

    fn cube(&mut self) -> Cube {
        let mut cube = Cube::wildcard();
        let constraints = self.byte() % 4;
        for _ in 0..constraints {
            let field = Field::ALL[self.byte() as usize % Field::ALL.len()];
            if self.byte().is_multiple_of(2) {
                cube = cube.with_field(field, u64::from(self.u32()));
            } else {
                let prefix = usize::from(self.byte()) % 33;
                cube = cube.with_field_prefix(field, u64::from(self.u32()), prefix);
            }
        }
        cube
    }

    fn rule(&mut self, index: usize) -> RuleTransfer {
        let priority = self.u16() % 512;
        let action = match self.byte() % 4 {
            0 => RuleAction::Drop,
            1 => RuleAction::ToController,
            2 => RuleAction::Forward {
                ports: vec![PortId(u32::from(self.byte() % 4))],
                rewrite: None,
            },
            _ => RuleAction::Forward {
                ports: vec![PortId(u32::from(self.byte() % 4))],
                rewrite: Some(Cube::wildcard().with_field(Field::Vlan, u64::from(self.byte()))),
            },
        };
        let mut rule = RuleTransfer::new(priority, self.cube(), action)
            .with_cookie(FlowCookie(index as u64 + 1));
        if self.byte().is_multiple_of(3) {
            rule = rule.on_port(PortId(u32::from(self.byte() % 4)));
        }
        rule
    }
}

/// HSA cube algebra and incremental rule-table maintenance.
///
/// The input is decoded into a rule table and probe headers, then:
///
/// * **insert differential** — building the table with the `O(log n)`
///   [`SwitchTransfer::insert_rule`] path must yield exactly the table a
///   full [`SwitchTransfer::from_rules`] rebuild produces;
/// * **exposed-region soundness** — every rule's exposed region is
///   contained in its match cube (the over-approximation direction the
///   incremental verifier depends on);
/// * **removal consistency** — `remove_rule` of a present rule succeeds,
///   shrinks the table by one, and keeps it equal to a rebuild of the
///   surviving rules;
/// * **cube algebra vs. membership** — `intersect` / `overlap_region` /
///   `overlaps` agree with each other and with sampled-header membership,
///   and `subtract` / `complement` results exclude what they must.
pub fn cube_target(data: &[u8]) {
    let mut dna = Dna::new(data);

    // --- incremental insert vs. full rebuild -------------------------------
    let rule_count = 1 + usize::from(dna.byte()) % 10;
    let rules: Vec<RuleTransfer> = (0..rule_count).map(|i| dna.rule(i)).collect();
    let mut incremental = SwitchTransfer::new();
    for rule in &rules {
        let index = incremental.insert_rule(rule.clone());
        assert!(index < incremental.len(), "insert index out of bounds");
    }
    let rebuilt = SwitchTransfer::from_rules(rules.clone());
    assert_eq!(
        incremental, rebuilt,
        "insert_rule diverged from a full rebuild"
    );

    // --- exposed-region soundness ------------------------------------------
    for (index, rule) in rebuilt.rules().iter().enumerate() {
        let exposed = rebuilt.exposed_region(index);
        assert!(
            exposed.is_subset_of(&HeaderSpace::from(rule.match_cube)),
            "exposed region escapes the rule's match cube"
        );
        if index == 0 {
            assert_eq!(
                exposed,
                HeaderSpace::from(rule.match_cube),
                "the top rule is never shadowed"
            );
        }
    }

    // --- removal consistency -----------------------------------------------
    let victim = rules[usize::from(dna.byte()) % rules.len()].clone();
    let before = incremental.len();
    let removed = incremental.remove_rule(&victim);
    assert!(removed.is_some(), "a present rule must be removable");
    assert_eq!(incremental.len(), before - 1);
    let resorted = SwitchTransfer::from_rules(incremental.rules().to_vec());
    assert_eq!(
        incremental, resorted,
        "removal broke the priority-sort invariant"
    );

    // --- cube algebra vs. sampled membership -------------------------------
    let a = dna.cube();
    let b = dna.cube();
    let intersection = a.intersect(&b);
    assert_eq!(a.overlaps(&b), intersection.is_some());
    assert_eq!(
        a.overlap_region(&b).is_some(),
        intersection.is_some(),
        "overlap_region and intersect disagree on emptiness"
    );
    if let Some(both) = &intersection {
        let witness = both.sample();
        assert!(a.contains(&witness) && b.contains(&witness));
        assert!(both.is_subset_of(&a) && both.is_subset_of(&b));
    }
    for piece in a.subtract(&b) {
        let witness = piece.sample();
        assert!(a.contains(&witness), "subtract left the minuend");
        assert!(!b.contains(&witness), "subtract kept the subtrahend");
    }
    for piece in a.complement() {
        assert!(!a.contains(&piece.sample()), "complement overlaps the cube");
    }
    let own = a.sample();
    assert!(a.contains(&own), "a cube must contain its own sample");

    // Probe headers: membership in both cubes implies a non-empty
    // intersection containing the probe.
    for _ in 0..4 {
        let probe = dna.header();
        if a.contains(&probe) && b.contains(&probe) {
            let both = intersection.as_ref().expect("common member, no overlap");
            assert!(both.contains(&probe), "intersection lost a common member");
        }
    }
}
