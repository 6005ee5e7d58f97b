//! Protocol edge cases over real sockets (ISSUE 5 satellite): a frame of
//! length zero, a frame of exactly `MAX_FRAME_BYTES`, a length prefix
//! that lies about the body size, and a body that is not UTF-8. Each is a
//! well-defined protocol outcome — an `error` response or a silent drop —
//! and never a hang or a panic; after every abuse the server still
//! serves a clean connection.
//!
//! Every client socket carries a read timeout as a fail-fast guard (a
//! regression that hangs fails in seconds instead of stalling the
//! suite); no assertion depends on elapsed time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nvwa::align::pipeline::ReferenceIndex;
use nvwa::serve::protocol::{
    read_frame, write_frame, AlignResponse, Mode, Request, Status, MAX_FRAME_BYTES,
};
use nvwa::serve::{Server, ServerConfig, Tenant};
use nvwa::testkit::{codes_to_dna, Prng};

const REF_LEN: usize = 4_000;

fn start_server() -> Server {
    let mut p = Prng(0xED6E_0001);
    let reference = p.codes(REF_LEN);
    let index = Arc::new(ReferenceIndex::from_codes(reference, 32));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    Server::start(vec![Tenant::single(index)], config).expect("server start")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream
}

/// One clean align round trip — the health probe run after each abuse.
fn align_round_trip(server: &Server, id: u64) {
    let mut stream = connect(server);
    let mut p = Prng(0x9EA1 ^ id);
    let codes = p.codes(80);
    let request = Request::Align {
        id,
        codes,
        deadline_ms: None,
        tenant: None,
        region: None,
        mode: Mode::Short,
    };
    write_frame(&mut stream, &request.encode()).expect("write align");
    let doc = read_frame(&mut stream)
        .expect("read align response")
        .expect("align response frame");
    let resp = AlignResponse::decode(&doc).expect("decode align response");
    assert_eq!(resp.id, id);
    assert_eq!(
        resp.status,
        Status::Ok,
        "health probe must succeed: {resp:?}"
    );
}

/// Reads the error response the server sends before dropping a
/// connection whose framing is lost.
fn expect_error_then_drop(stream: &mut TcpStream) -> AlignResponse {
    let doc = read_frame(stream)
        .expect("read error response")
        .expect("server answers before dropping");
    let resp = AlignResponse::decode(&doc).expect("decode error response");
    assert_eq!(resp.status, Status::Error, "{resp:?}");
    // After the error response the server drops the connection: clean EOF.
    assert!(
        read_frame(stream).expect("post-error read").is_none(),
        "connection should be closed after a framing error"
    );
    resp
}

#[test]
fn zero_length_frame_is_a_protocol_error() {
    let server = start_server();
    let mut stream = connect(&server);
    // A frame promising zero body bytes: parses as empty JSON → error.
    stream.write_all(&0u32.to_be_bytes()).expect("write header");
    stream.flush().expect("flush");
    expect_error_then_drop(&mut stream);
    align_round_trip(&server, 1);
    let metrics = server.shutdown();
    assert!(metrics.counter("serve.protocol_errors") >= 1);
}

#[test]
fn max_length_frame_is_served() {
    let server = start_server();
    let mut stream = connect(&server);
    // A valid align request padded to exactly MAX_FRAME_BYTES. Unknown
    // keys are ignored by the decoder, so the padding rides along.
    let mut p = Prng(0xBEEF);
    let seq = codes_to_dna(&p.codes(100));
    let prefix = format!("{{\"kind\":\"align\",\"id\":7,\"seq\":\"{seq}\",\"pad\":\"");
    let suffix = "\"}";
    let pad = MAX_FRAME_BYTES - prefix.len() - suffix.len();
    let mut body = prefix;
    body.extend(std::iter::repeat_n('x', pad));
    body.push_str(suffix);
    assert_eq!(body.len(), MAX_FRAME_BYTES);
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .expect("write header");
    stream.write_all(body.as_bytes()).expect("write body");
    stream.flush().expect("flush");
    let doc = read_frame(&mut stream)
        .expect("read response")
        .expect("response frame");
    let resp = AlignResponse::decode(&doc).expect("decode response");
    assert_eq!(resp.id, 7);
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_a_protocol_error() {
    let server = start_server();
    let mut stream = connect(&server);
    let lie = (MAX_FRAME_BYTES as u32) + 1;
    stream.write_all(&lie.to_be_bytes()).expect("write header");
    stream.flush().expect("flush");
    let resp = expect_error_then_drop(&mut stream);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("exceeds"),
        "{resp:?}"
    );
    align_round_trip(&server, 2);
    let metrics = server.shutdown();
    assert!(metrics.counter("serve.protocol_errors") >= 1);
}

#[test]
fn lying_length_prefix_is_dropped_silently() {
    let server = start_server();
    let mut stream = connect(&server);
    // Promise 100 body bytes, deliver 10, then close the write side:
    // the server sees EOF mid-frame and drops the connection without a
    // response (the request was never accepted), counting one protocol
    // error.
    stream
        .write_all(&100u32.to_be_bytes())
        .expect("write header");
    stream.write_all(b"0123456789").expect("write partial body");
    stream.flush().expect("flush");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain to EOF");
    assert!(
        rest.is_empty(),
        "no response expected for a half-delivered frame, got {} bytes",
        rest.len()
    );
    align_round_trip(&server, 3);
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("serve.protocol_errors"), 1);
}

#[test]
fn invalid_utf8_body_is_a_protocol_error() {
    let server = start_server();
    let mut stream = connect(&server);
    let body = [0xffu8, 0xfe, 0x80, 0x81];
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .expect("write header");
    stream.write_all(&body).expect("write body");
    stream.flush().expect("flush");
    expect_error_then_drop(&mut stream);
    align_round_trip(&server, 4);
    let metrics = server.shutdown();
    assert!(metrics.counter("serve.protocol_errors") >= 1);
}

#[test]
fn malformed_json_body_is_a_protocol_error() {
    let server = start_server();
    let mut stream = connect(&server);
    let body = b"{\"kind\": \"align\", ";
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .expect("write header");
    stream.write_all(body).expect("write body");
    stream.flush().expect("flush");
    expect_error_then_drop(&mut stream);
    align_round_trip(&server, 5);
    server.shutdown();
}
