//! What actually reaches the socket.
//!
//! `response_fnv` is folded inside the session, so it cannot see the
//! daemon's transport: per-connection response batching and coalesced
//! writes. This suite reads the raw response bytes off each connection
//! and holds them to the in-process [`ScoreSession`]: a connection must
//! receive exactly the session's response frames for its own requests,
//! byte for byte and in the session's emission order.

mod common;

use common::synthetic_artifact;
use sbed::daemon::{Daemon, DaemonConfig};
use sbed::fleet::{synth_events, SynthConfig};
use sbed::session::ScoreSession;
use sbed::wire::{self, EncodedResponse, KIND_ACK, KIND_EVENT, KIND_FINISH, KIND_REPORT};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use streamd::artifact::PipelineArtifact;
use streamd::serve::ServeConfig;
use titan_sim::topology::Topology;

/// Requests a connection may have sent and not yet had acknowledged.
const WINDOW: usize = 32;

fn serve_config() -> ServeConfig {
    ServeConfig::window(0, 1_000)
}

/// The run's requests as (request id, kind, payload): event `i` under
/// id `i`, then FINISH.
fn requests() -> Vec<(u64, u16, Vec<u8>)> {
    let cfg = SynthConfig {
        minutes: 120,
        ..SynthConfig::demo(23, 64)
    };
    let events = synth_events(&cfg);
    let mut out: Vec<(u64, u16, Vec<u8>)> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| (i as u64, KIND_EVENT, ev.encode()))
        .collect();
    out.push((events.len() as u64, KIND_FINISH, Vec::new()));
    out
}

/// The in-process session's responses to `reqs`, in emission order.
fn session_responses(
    artifact: &PipelineArtifact,
    reqs: &[(u64, u16, Vec<u8>)],
) -> Vec<EncodedResponse> {
    let topology = Topology::tiny().expect("tiny topology");
    let mut session = ScoreSession::new(artifact, &serve_config(), topology).expect("session");
    let mut out = Vec::new();
    for (id, kind, payload) in reqs {
        out.extend(session.handle(*kind, *id, payload).expect("handle"));
    }
    out
}

/// Sends `reqs` on one connection with at most [`WINDOW`] of them
/// unacknowledged (the `run_fleet` discipline: a launch's slot frees at
/// its ACK), then reads until the daemon closes. Returns every byte
/// received.
fn drive(addr: SocketAddr, reqs: &[(u64, u16, Vec<u8>)]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut got: Vec<u8> = Vec::new();
    let mut parsed = 0usize;
    let mut answered = 0usize;
    let mut chunk = vec![0u8; 4096];
    let mut read_more = |stream: &mut TcpStream, got: &mut Vec<u8>| -> bool {
        let n = stream.read(&mut chunk).expect("read");
        got.extend_from_slice(&chunk[..n]);
        n > 0
    };
    for (sent, (id, kind, payload)) in reqs.iter().enumerate() {
        while sent - answered >= WINDOW {
            assert!(read_more(&mut stream, &mut got), "daemon closed early");
            // Count the ACKs and REPORTs among the complete frames.
            while got.len() - parsed >= wire::HEADER_LEN {
                let hdr: [u8; wire::HEADER_LEN] = got[parsed..parsed + wire::HEADER_LEN]
                    .try_into()
                    .expect("header slice");
                let h = wire::validate_header(&hdr).expect("response header");
                let end = parsed + wire::HEADER_LEN + h.len as usize;
                if got.len() < end {
                    break;
                }
                if h.kind == KIND_ACK || h.kind == KIND_REPORT {
                    answered += 1;
                }
                parsed = end;
            }
        }
        stream
            .write_all(&wire::encode_frame(*kind, *id, payload))
            .expect("send");
    }
    while read_more(&mut stream, &mut got) {}
    got
}

fn concat<'a>(responses: impl Iterator<Item = &'a EncodedResponse>) -> Vec<u8> {
    responses.flat_map(|r| r.bytes.iter().copied()).collect()
}

fn spawn(artifact: &PipelineArtifact) -> Daemon {
    let topology = Topology::tiny().expect("tiny topology");
    let cfg = DaemonConfig::new("127.0.0.1:0", serve_config(), topology);
    Daemon::spawn(Arc::new(artifact.clone()), cfg).expect("daemon spawns")
}

/// One pipelined connection receives the session's whole response
/// stream, byte for byte.
#[test]
fn one_pipelined_connection_receives_the_session_stream() {
    let artifact = synthetic_artifact();
    let reqs = requests();
    let expected = session_responses(&artifact, &reqs);
    assert!(expected.iter().any(|r| r.kind == wire::KIND_SCORES));

    let daemon = spawn(&artifact);
    let got = drive(daemon.addr(), &reqs);
    let report = daemon.join().expect("join");

    assert_eq!(report.n_overloads, 0);
    assert_eq!(report.n_admitted, reqs.len() as u64);
    let want = concat(expected.iter());
    assert_eq!(got.len(), want.len(), "response byte count");
    assert!(got == want, "socket bytes differ from the session's stream");
}

/// With two connections (request `i` on connection `i mod 2`), each
/// connection receives exactly the sub-sequence of the session's
/// responses that answer its own requests.
#[test]
fn each_connection_receives_its_own_subsequence() {
    let artifact = synthetic_artifact();
    let reqs = requests();
    let expected = session_responses(&artifact, &reqs);

    let daemon = spawn(&artifact);
    let addr = daemon.addr();
    let clients: Vec<_> = (0..2u64)
        .map(|c| {
            let mine: Vec<(u64, u16, Vec<u8>)> =
                reqs.iter().filter(|r| r.0 % 2 == c).cloned().collect();
            std::thread::spawn(move || drive(addr, &mine))
        })
        .collect();
    let got: Vec<Vec<u8>> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let report = daemon.join().expect("join");

    assert_eq!(report.n_overloads, 0);
    assert_eq!(report.n_connections, 2);
    for (c, bytes) in got.iter().enumerate() {
        let want = concat(expected.iter().filter(|r| r.request_id % 2 == c as u64));
        assert_eq!(bytes.len(), want.len(), "connection {c}: byte count");
        assert!(
            *bytes == want,
            "connection {c}: socket bytes differ from its session sub-sequence"
        );
    }
}
