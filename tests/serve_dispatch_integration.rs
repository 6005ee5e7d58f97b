//! Work-conserving dispatch over real sockets (ISSUE 21): a request that
//! reaches an idle worker is executed at once, alone, and everything that
//! arrives while the worker is busy rides in its next batch — no timer
//! forms either batch, and no bin has to fill.
//!
//! The test is pinned by structure, not by elapsed time: the second wave
//! is sent only after the server has counted the first batch as taken,
//! and the one worker then holds that batch for `worker_delay`. The client
//! socket's read timeout is a fail-fast guard against a lost wake-up.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nvwa::align::pipeline::ReferenceIndex;
use nvwa::serve::protocol::{read_frame, write_frame, AlignResponse, Mode, Request, Status};
use nvwa::serve::{Server, ServerConfig, Tenant};
use nvwa::testkit::{wait_until, Prng};

fn align(id: u64, codes: Vec<u8>) -> Request {
    Request::Align {
        id,
        codes,
        deadline_ms: None,
        tenant: None,
        region: None,
        mode: Mode::Short,
    }
}

#[test]
fn a_busy_worker_batches_exactly_what_arrived_while_it_executed() {
    let mut prng = Prng(0xD15_0021);
    let index = Arc::new(ReferenceIndex::from_codes(prng.codes(4_000), 32));
    let server = Server::start(
        vec![Tenant::single(index)],
        ServerConfig {
            workers: 1,
            worker_delay: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");

    write_frame(&mut stream, &align(0, prng.codes(80)).encode()).expect("first request");
    // The idle worker takes it alone; `batches_formed` counts the take,
    // before the worker starts its 50 ms hold.
    let took = || server.metrics().counter("serve.batches_formed") > 0;
    assert!(
        wait_until(Duration::from_secs(30), took),
        "first request never taken"
    );
    let mut wave = Vec::new();
    for id in 1..=9 {
        write_frame(&mut wave, &align(id, prng.codes(80)).encode()).expect("encode");
    }
    std::io::Write::write_all(&mut stream, &wave).expect("second wave");

    let mut batch_sizes = Vec::new();
    for expected_id in 0..=9 {
        let doc = read_frame(&mut stream)
            .expect("no request may hang")
            .expect("response frame");
        let resp = AlignResponse::decode(&doc).expect("decode");
        assert_eq!(resp.status, Status::Ok, "{resp:?}");
        assert_eq!(resp.id, expected_id, "answered in arrival order");
        batch_sizes.push(resp.batch_size.expect("ok responses carry batch_size"));
    }
    assert_eq!(batch_sizes, [1, 9, 9, 9, 9, 9, 9, 9, 9, 9]);

    let metrics = server.shutdown();
    assert_eq!(metrics.counter("serve.batches_formed"), 2);
    assert_eq!(metrics.counter("serve.batch_flush_fill"), 0);
    assert_eq!(metrics.counter("serve.batch_flush_timeout"), 2, "both idle");
    assert_eq!(metrics.counter("serve.batch_flush_drain"), 0);
}
