//! Back-pressure, drain, and live-damage behaviour of the daemon.
//!
//! Every refusal must be a *typed response* — never a silent drop —
//! and a drained daemon must finish what it admitted, refuse new
//! work, close its port, and leave a recorded log that replays byte
//! for byte.

mod common;

use common::synthetic_artifact;
use sbed::client::{Connection, ResponseBody};
use sbed::daemon::{Daemon, DaemonConfig};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::replay::replay_log_file;
use sbed::wire::{self, WireEvent};
use std::sync::Arc;
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

fn tick(minute: u64) -> WireEvent {
    WireEvent::Tick { minute }
}

fn spawn_daemon(mutate: impl FnOnce(&mut DaemonConfig)) -> Daemon {
    let artifact = Arc::new(synthetic_artifact());
    let topology = Topology::tiny().expect("tiny topology");
    let mut cfg = DaemonConfig::new("127.0.0.1:0", ServeConfig::window(0, 1_000), topology);
    mutate(&mut cfg);
    Daemon::spawn(artifact, cfg).expect("daemon spawns")
}

fn expect_ack(conn: &mut Connection, seq: u64) {
    let r = conn.recv().expect("recv").expect("response");
    assert_eq!(r.request_id, seq);
    assert_eq!(r.body, ResponseBody::Ack, "seq {seq}: expected ACK");
}

fn expect_error(conn: &mut Connection, seq: u64, code: u16) -> String {
    let r = conn.recv().expect("recv").expect("response");
    assert_eq!(r.request_id, seq);
    match r.body {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, code, "seq {seq}: wrong error code ({})", e.message);
            e.message
        }
        other => panic!("seq {seq}: expected error {code}, got {other:?}"),
    }
}

/// A full per-connection window refuses with a typed ERR_OVERLOAD
/// response; the refused request can be retransmitted and the run
/// still completes.
#[test]
fn conn_window_overload_is_typed_not_dropped() {
    let daemon = spawn_daemon(|c| c.conn_window = 1);
    let addr = daemon.addr();
    let mut a = Connection::connect(addr).expect("conn a");
    let mut b = Connection::connect(addr).expect("conn b");

    // seq 1 arrives first: held for the sequencer, occupying conn A's
    // whole window (no response until seq 0 admits it).
    a.send_event(1, &tick(1)).expect("send 1");
    // A deterministic beat so the reader has queued seq 1 before the
    // next frame (the window check is per-reader, in arrival order).
    std::thread::sleep(std::time::Duration::from_millis(50));
    a.send_event(2, &tick(2)).expect("send 2");
    expect_error(&mut a, 2, wire::ERR_OVERLOAD);

    // Conn B supplies seq 0: the sequencer admits 0 then 1, freeing
    // A's window.
    b.send_event(0, &tick(0)).expect("send 0");
    expect_ack(&mut b, 0);
    expect_ack(&mut a, 1);

    // The refused frame retransmits cleanly.
    a.send_event(2, &tick(2)).expect("resend 2");
    expect_ack(&mut a, 2);

    b.send_finish(3).expect("finish");
    let r = b.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(report.report.n_events, 3);
    assert!(report.n_overloads >= 1, "overload refusal not counted");
}

/// The bounded reorder buffer refuses early arrivals with
/// ERR_OVERLOAD, and stale/duplicate sequence numbers with
/// ERR_REJECTED — all typed, all retransmittable where it makes sense.
#[test]
fn reorder_buffer_and_sequence_rejections_are_typed() {
    let daemon = spawn_daemon(|c| c.reorder_capacity = 1);
    let addr = daemon.addr();
    let mut conn = Connection::connect(addr).expect("conn");

    conn.send_event(1, &tick(1)).expect("send 1"); // buffered (waiting for 0)
    conn.send_event(2, &tick(2)).expect("send 2"); // buffer full
    expect_error(&mut conn, 2, wire::ERR_OVERLOAD);
    conn.send_event(1, &tick(1)).expect("send dup 1"); // already queued
    expect_error(&mut conn, 1, wire::ERR_REJECTED);

    conn.send_event(0, &tick(0)).expect("send 0"); // admits 0 and then 1
    expect_ack(&mut conn, 0);
    expect_ack(&mut conn, 1);

    conn.send_event(0, &tick(0)).expect("send stale 0"); // already admitted
    expect_error(&mut conn, 0, wire::ERR_REJECTED);

    conn.send_event(2, &tick(2)).expect("resend 2");
    expect_ack(&mut conn, 2);
    conn.send_finish(3).expect("finish");
    let r = conn.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(report.report.n_events, 3);
    assert!(report.n_overloads >= 1);
}

/// A full engine queue refuses with a typed ERR_OVERLOAD that names
/// `queue_capacity`, and the refused frame retransmits cleanly. The
/// engine opens its record log at start-up; a FIFO nobody reads yet
/// holds it there, so nothing drains the queue until the test says so.
#[cfg(unix)]
#[test]
fn engine_queue_overload_is_typed_and_names_its_bound() {
    let dir = std::env::temp_dir().join(format!("sbed_queue_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fifo = dir.join("log.fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo runs");
    assert!(made.success(), "mkfifo failed");

    let daemon = spawn_daemon(|c| {
        c.queue_capacity = 1;
        c.conn_window = 7;
        c.record_log = Some(fifo.clone());
    });
    let mut conn = Connection::connect(daemon.addr()).expect("conn");
    conn.send_event(0, &tick(0)).expect("send 0"); // fills the queue
    conn.send_event(1, &tick(1)).expect("send 1"); // queue full
    let message = expect_error(&mut conn, 1, wire::ERR_OVERLOAD);
    assert!(
        message.contains("(1/1)"),
        "overload must name queue_capacity: {message}"
    );

    // Opening the FIFO for reading releases the engine; the reader
    // returns once the engine closes its log.
    let reader = {
        let fifo = fifo.clone();
        std::thread::spawn(move || std::fs::read(fifo))
    };
    expect_ack(&mut conn, 0);
    conn.send_event(1, &tick(1)).expect("resend 1");
    expect_ack(&mut conn, 1);
    conn.send_finish(2).expect("finish");
    let r = conn.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(report.report.n_events, 2);
    assert_eq!(report.n_overloads, 1);
    let log = reader.join().expect("log reader").expect("log read");
    assert!(!log.is_empty(), "record log was not written");
    std::fs::remove_dir_all(&dir).ok();
}

/// Drain finishes everything admitted, then the port closes: new
/// connection attempts are refused by the OS.
#[test]
fn drain_completes_admitted_work_and_closes_the_port() {
    let daemon = spawn_daemon(|c| c.exit_on_finish = false);
    let addr = daemon.addr();
    let mut conn = Connection::connect(addr).expect("conn");

    for seq in 0..10u64 {
        conn.send_event(seq, &tick(seq)).expect("send");
        expect_ack(&mut conn, seq);
    }

    daemon.drain();
    let report = daemon.join().expect("join");
    // Everything admitted before the drain was scored and reported.
    assert_eq!(report.report.n_events, 10);
    assert!(!report.snapshot.is_empty());
    assert_ne!(report.response_fnv, 0);

    // The listener is gone: connecting again must fail.
    assert!(
        Connection::connect(addr).is_err(),
        "post-drain connection was accepted"
    );
    // The drained server closed our connection (any buffered responses
    // were flushed first; recv eventually reports the close).
    while let Ok(Some(_)) = conn.recv() {}
}

fn event_frame(seq: u64) -> Vec<u8> {
    wire::encode_frame(wire::KIND_EVENT, seq, &tick(seq).encode())
}

/// Recoverable transport damage (checksum, version, non-request kind)
/// gets a typed error and the connection lives on; framing-destroying
/// damage (bad magic) gets a typed error and then the connection
/// closes. Neither enters the replay surface. The daemon reads frames
/// through a buffer, so frame boundaries are checked too: frames
/// coalesced into one write, or trickled one byte per write, get the
/// same answers as one frame per write.
#[test]
fn live_connection_survives_recoverable_damage() {
    let daemon = spawn_daemon(|_| {});
    let addr = daemon.addr();

    // A framing-destroyed connection: typed error, then closed, even
    // though a well-formed frame follows in the same write.
    let mut broken = Connection::connect(addr).expect("broken conn");
    let mut bad_magic = wire::encode_frame(wire::KIND_EVENT, 900, &tick(0).encode());
    bad_magic[0] = b'X';
    bad_magic.extend_from_slice(&event_frame(901));
    broken.send_raw(&bad_magic).expect("send bad magic");
    expect_error(&mut broken, 900, wire::ERR_MALFORMED);
    // The server abandons the connection (clean close or reset — its
    // reader stopped mid-frame, so an RST is legitimate).
    match broken.recv() {
        Ok(None) | Err(_) => {}
        Ok(Some(r)) => panic!("connection survived unrecoverable framing damage: {r:?}"),
    }

    // A connection taking recoverable damage keeps working.
    let mut conn = Connection::connect(addr).expect("conn");

    let mut bad_sum = wire::encode_frame(wire::KIND_EVENT, 100, &tick(0).encode());
    bad_sum[20] ^= 0xff;
    conn.send_raw(&bad_sum).expect("send bad checksum");
    expect_error(&mut conn, 100, wire::ERR_MALFORMED);

    let mut bad_version = wire::encode_frame(wire::KIND_EVENT, 101, &tick(0).encode());
    bad_version[4] = 9;
    conn.send_raw(&bad_version).expect("send bad version");
    expect_error(&mut conn, 101, wire::ERR_MALFORMED);

    // A response kind is not a request.
    let not_request = wire::encode_frame(wire::KIND_ACK, 102, &[]);
    conn.send_raw(&not_request).expect("send non-request");
    expect_error(&mut conn, 102, wire::ERR_MALFORMED);

    // The same connection then carries a full run: one frame per
    // write,
    for seq in 0..3u64 {
        conn.send_event(seq, &tick(seq)).expect("send");
        expect_ack(&mut conn, seq);
    }
    // several frames in one write,
    let coalesced: Vec<u8> = (3..6u64).flat_map(event_frame).collect();
    conn.send_raw(&coalesced).expect("send coalesced");
    for seq in 3..6u64 {
        expect_ack(&mut conn, seq);
    }
    // one frame trickled a byte per write,
    for byte in event_frame(6) {
        conn.send_raw(&[byte]).expect("send byte");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    expect_ack(&mut conn, 6);
    // and a checksum-damaged frame in the middle of a coalesced write:
    // it is refused, and the frames after it are still answered. The
    // refusal comes from the reader and the ACKs from the engine, so
    // only their per-request answers are fixed, not their order.
    let mut bad_mid = wire::encode_frame(wire::KIND_EVENT, 103, &tick(0).encode());
    bad_mid[20] ^= 0xff;
    let mixed: Vec<u8> = [event_frame(7), bad_mid, event_frame(8)].concat();
    conn.send_raw(&mixed).expect("send mixed");
    let mut answers: Vec<(u64, ResponseBody)> = (0..3)
        .map(|_| {
            let r = conn.recv().expect("recv").expect("response");
            (r.request_id, r.body)
        })
        .collect();
    answers.sort_by_key(|a| a.0);
    assert_eq!(answers[0], (7, ResponseBody::Ack));
    assert_eq!(answers[1], (8, ResponseBody::Ack));
    assert_eq!(answers[2].0, 103);
    assert!(
        matches!(&answers[2].1, ResponseBody::Error(e) if e.code == wire::ERR_MALFORMED),
        "damaged frame mid-write: {:?}",
        answers[2].1
    );

    conn.send_finish(9).expect("finish");
    let r = conn.recv().expect("recv").expect("report");
    assert!(matches!(r.body, ResponseBody::Report(_)));

    let report = daemon.join().expect("join");
    assert_eq!(
        report.report.n_events, 9,
        "damaged frames leaked into the session"
    );
    assert_eq!(report.n_transport_errors, 5);
}

/// A recorded run — drained mid-stream, so the end-of-log rule fires —
/// replays bit-identically: same response checksum, same report, same
/// metrics snapshot bytes.
#[test]
fn drained_recorded_log_replays_byte_identically() {
    let log_path = std::env::temp_dir().join(format!("sbed_drain_log_{}.bin", std::process::id()));
    let artifact = synthetic_artifact();
    let topology = Topology::tiny().expect("tiny topology");
    let serve = ServeConfig::window(0, 1_000);

    let mut cfg = DaemonConfig::new("127.0.0.1:0", serve, topology);
    cfg.record_log = Some(log_path.clone());
    cfg.exit_on_finish = false;
    let daemon = Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns");
    let addr = daemon.addr();

    // A real mixed workload (ticks, launches, SBE deltas), no FINISH:
    // the drain supplies the ending.
    let events = synth_events(&SynthConfig::demo(11, 64));
    let mut conn = Connection::connect(addr).expect("conn");
    let mut acks = 0u64;
    for (seq, ev) in events.iter().enumerate() {
        conn.send_event(seq as u64, ev).expect("send");
        // Keep the window at 1: read until this event's ACK arrives
        // (score frames for earlier launches may come first).
        loop {
            let r = conn.recv().expect("recv").expect("response");
            match r.body {
                ResponseBody::Ack => {
                    assert_eq!(r.request_id, seq as u64);
                    acks += 1;
                    break;
                }
                ResponseBody::Scores(_) => {}
                other => panic!("seq {seq}: unexpected {other:?}"),
            }
        }
    }
    assert_eq!(acks, events.len() as u64);

    daemon.drain();
    let live = daemon.join().expect("join");
    assert_eq!(live.report.n_events, events.len() as u64);

    let replayed = replay_log_file(
        &log_path,
        &artifact,
        &serve,
        Topology::tiny().expect("topo"),
    )
    .expect("replay");
    assert_eq!(replayed.n_frames, events.len() as u64);
    assert_eq!(
        replayed.response_fnv, live.response_fnv,
        "response stream diverged"
    );
    assert_eq!(replayed.report, live.report, "report diverged");
    assert_eq!(
        replayed.snapshot, live.snapshot,
        "metrics snapshot not byte-stable"
    );

    std::fs::remove_file(&log_path).ok();
}
