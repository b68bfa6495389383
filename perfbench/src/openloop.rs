//! The open-loop generator for `net-open`: one connection, one sender
//! thread sending frames on a fixed schedule, one receiver thread
//! timestamping every response.
//!
//! Every frame is timed from when it was *due*, not from when it was
//! sent, so a stall charges its wait to every frame scheduled behind
//! it. Due frames queue at the client behind the `sbed` client's
//! default in-flight window (frames sent and not yet acknowledged);
//! time spent in that queue counts against the frame, not the
//! generator. Frames the daemon refuses with a typed overload are sent
//! again (the daemon's sequencer waits for every id in order) but keep
//! their original due time.
//!
//! The schedule starts once the daemon has acknowledged the lap's first
//! frame, so the time a fresh daemon takes to accept the connection is
//! not charged to the frames behind it; frame 0 itself is not timed.

use crate::spans::nanos_since;
use crate::Res;
use sbed::wire::{
    self, ErrorPayload, ReportPayload, ScoresPayload, ERR_OVERLOAD, KIND_ACK, KIND_ERROR,
    KIND_REPORT, KIND_SCORES,
};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A fixed-rate send schedule: frame `i` is due `i / rate` seconds
/// after `start_ns`. Integer arithmetic, so due times are exact.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    /// Frames per second.
    pub rate: u64,
}

impl Schedule {
    /// When frame `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        let offset = u128::from(i) * 1_000_000_000 / u128::from(self.rate.max(1));
        self.start_ns + u64::try_from(offset).unwrap_or(u64::MAX)
    }

    /// How many frames are due at or before `now_ns`.
    pub fn due_by(&self, now_ns: u64) -> u64 {
        let Some(d) = now_ns.checked_sub(self.start_ns) else {
            return 0;
        };
        // Frame i is due by now iff floor(i * 1e9 / rate) <= d, i.e.
        // i * 1e9 < (d + 1) * rate.
        let n = (u128::from(d) + 1) * u128::from(self.rate.max(1));
        u64::try_from(n.div_ceil(1_000_000_000)).unwrap_or(u64::MAX)
    }
}

/// How late an event at `at_ns` is against its due time (0 if early).
pub fn lateness_ns(due_ns: u64, at_ns: u64) -> u64 {
    at_ns.saturating_sub(due_ns)
}

/// A response as the decision attribution sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// ACK of the given request id.
    Ack(u64),
    /// A SCORES frame and its number of stage-2 entries.
    Scores { stage2: u32 },
    /// The FINISH report.
    Report,
    /// Anything else (typed errors).
    Other,
}

/// Attributes stage-2 decisions to the frames that caused them on one
/// connection. The session answers frame R with ACK(R) first and then
/// the SCORES of the batch R's step flushed, so every SCORES frame
/// belongs to the last ACK before it. Frame R's decision time is the
/// arrival of the last SCORES frame with a stage-2 entry between
/// ACK(R) and the next ACK; the decisions it made are the stage-2
/// entries of all those SCORES frames. The final flush on FINISH
/// carries no ACK and cannot be told apart from the last event frame's,
/// so the last acknowledged frame gets no sample. Returns (request id,
/// decision time, stage-2 decisions) in request order.
pub fn attribute(seen: &[(Seen, u64)]) -> Vec<(u64, u64, u32)> {
    let mut current: Option<u64> = None;
    let mut decided: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    for &(s, at) in seen {
        match s {
            Seen::Ack(r) => current = Some(r),
            Seen::Scores { stage2 } if stage2 > 0 => {
                if let Some(r) = current {
                    let entry = decided.entry(r).or_insert((at, 0));
                    *entry = (at, entry.1 + stage2);
                }
            }
            Seen::Report => {
                if let Some(r) = current.take() {
                    decided.remove(&r);
                }
            }
            Seen::Scores { .. } | Seen::Other => {}
        }
    }
    decided.into_iter().map(|(r, (at, n))| (r, at, n)).collect()
}

/// A lap that has not finished after this long is abandoned.
const LAP_LIMIT: Duration = Duration::from_secs(60);

/// What one open-loop lap observed. Times are nanoseconds since the
/// run's origin; 0 means "never".
#[derive(Debug, Default)]
pub struct Lap {
    pub schedule: Option<Schedule>,
    /// When the generator first saw each frame due (events, then
    /// FINISH): its lateness is how late the generator ran.
    pub seen_due_ns: Vec<u64>,
    /// ACK arrival per frame.
    pub ack_ns: Vec<u64>,
    /// SCORES frames received per request id.
    pub scores: Vec<u32>,
    /// Responses in arrival order.
    pub seen: Vec<(Seen, u64)>,
    pub report: Option<ReportPayload>,
    /// Typed overload refusals received (each frame was sent again).
    pub overloads: u64,
    /// Other typed error responses.
    pub errors: u64,
}

/// Sends `frames` (request id = index; the last one is FINISH) to
/// `addr`: frame 0 first, then, once it is acknowledged, the rest at
/// `rate` frames per second with at most `window` frames
/// unacknowledged. Records every response.
pub fn run_lap(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    rate: u64,
    window: usize,
    origin: Instant,
) -> Res<Lap> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let total = frames.len();
    let done = AtomicBool::new(false);
    // Responses that end a frame's wait: ACKs, refusals, the report.
    let answered = AtomicU64::new(0);
    let (retry_tx, retry_rx) = mpsc::channel::<u64>();
    let deadline = Instant::now() + LAP_LIMIT;

    let (sent, received) = std::thread::scope(|scope| {
        let (done, answered) = (&done, &answered);
        let sender = scope.spawn(move || -> Res<(Vec<u64>, Schedule)> {
            let mut seen_due_ns = vec![0u64; total];
            writer.write_all(frames.first().ok_or("a lap needs at least one frame")?)?;
            while answered.load(Ordering::SeqCst) == 0 && !done.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("open-loop lap exceeded its time limit".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            // Frame 1 is due now.
            let first = Schedule { start_ns: 0, rate }.due_ns(1);
            let schedule = Schedule {
                start_ns: nanos_since(origin).saturating_sub(first),
                rate,
            };
            let mut seen = 1usize;
            let mut next = 1usize;
            let mut sends = 1u64;
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
            while !done.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err("open-loop lap exceeded its time limit".into());
                }
                let now = nanos_since(origin);
                let due = usize::try_from(schedule.due_by(now)).unwrap_or(usize::MAX);
                let due = due.min(total);
                for slot in seen_due_ns.iter_mut().take(due).skip(seen) {
                    *slot = now;
                }
                seen = seen.max(due);
                buf.clear();
                while let Ok(id) = retry_rx.try_recv() {
                    let f = usize::try_from(id).ok().and_then(|i| frames.get(i));
                    buf.extend_from_slice(f.ok_or("refusal for an unknown request id")?);
                    sends += 1;
                }
                let outstanding = sends.saturating_sub(answered.load(Ordering::SeqCst));
                let room = (window as u64).saturating_sub(outstanding) as usize;
                let take = due.saturating_sub(next).min(room);
                for f in frames.iter().skip(next).take(take) {
                    buf.extend_from_slice(f);
                }
                next += take;
                sends += take as u64;
                if !buf.is_empty() {
                    writer.write_all(&buf)?;
                }
                let wait = if next < due {
                    // Window full: poll for acknowledgements.
                    20_000
                } else if next < total {
                    schedule
                        .due_ns(next as u64)
                        .saturating_sub(nanos_since(origin))
                } else {
                    200_000
                };
                if wait > 0 {
                    std::thread::sleep(Duration::from_nanos(wait.min(1_000_000)));
                }
            }
            Ok((seen_due_ns, schedule))
        });
        let receiver = scope.spawn(move || {
            let out = receive(&mut reader, total, origin, &retry_tx, answered, deadline);
            done.store(true, Ordering::SeqCst);
            out
        });
        let received = receiver.join();
        done.store(true, Ordering::SeqCst);
        (sender.join(), received)
    });
    let (seen_due_ns, schedule) = sent.map_err(|_| "open-loop sender panicked")??;
    let mut lap = received.map_err(|_| "open-loop receiver panicked")??;
    lap.schedule = Some(schedule);
    lap.seen_due_ns = seen_due_ns;
    Ok(lap)
}

/// Reads responses until the FINISH report arrives.
fn receive(
    stream: &mut TcpStream,
    total: usize,
    origin: Instant,
    retry: &mpsc::Sender<u64>,
    answered: &AtomicU64,
    deadline: Instant,
) -> Res<Lap> {
    let mut lap = Lap {
        ack_ns: vec![0; total],
        scores: vec![0; total],
        seen: Vec::with_capacity(total + total / 4),
        ..Lap::default()
    };
    loop {
        if Instant::now() > deadline {
            return Err("open-loop lap exceeded its time limit".into());
        }
        let mut hdr = [0u8; wire::HEADER_LEN];
        stream.read_exact(&mut hdr)?;
        let header = wire::validate_header(&hdr)?;
        let mut payload = vec![0u8; header.len as usize];
        stream.read_exact(&mut payload)?;
        let at = nanos_since(origin);
        if mlkit::artifact::fnv1a64(&payload) != header.checksum {
            return Err("response checksum mismatch".into());
        }
        let id = header.request_id;
        let slot = usize::try_from(id).ok().filter(|&i| i < total);
        let seen = match header.kind {
            KIND_ACK => {
                if let Some(i) = slot {
                    lap.ack_ns[i] = at;
                }
                Seen::Ack(id)
            }
            KIND_SCORES => {
                let p = ScoresPayload::decode(&payload)?;
                if let Some(i) = slot {
                    lap.scores[i] += 1;
                }
                Seen::Scores {
                    stage2: p.entries.iter().filter(|e| e.stage2).count() as u32,
                }
            }
            KIND_ERROR => {
                let e = ErrorPayload::decode(&payload)?;
                if e.code == ERR_OVERLOAD {
                    lap.overloads += 1;
                    retry.send(id)?;
                } else {
                    lap.errors += 1;
                    eprintln!("perfbench: request {id} refused: {} {}", e.code, e.message);
                }
                Seen::Other
            }
            KIND_REPORT => {
                lap.report = Some(ReportPayload::decode(&payload)?);
                Seen::Report
            }
            other => return Err(format!("unexpected response kind {other:#06x}").into()),
        };
        if !matches!(seen, Seen::Scores { .. }) {
            answered.fetch_add(1, Ordering::SeqCst);
        }
        lap.seen.push((seen, at));
        if seen == Seen::Report {
            return Ok(lap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_exact_and_due_by_inverts_them() {
        let s = Schedule {
            start_ns: 1_000,
            rate: 3,
        };
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 1_000 + 333_333_333);
        assert_eq!(s.due_ns(3), 1_000 + 1_000_000_000);
        assert_eq!(s.due_by(999), 0);
        assert_eq!(s.due_by(1_000), 1);
        for rate in [1u64, 3, 7, 60_000, 85_000] {
            let s = Schedule { start_ns: 5, rate };
            for i in [0u64, 1, 2, 99, 12_345, 280_000] {
                let due = s.due_ns(i);
                assert!(
                    s.due_by(due) > i,
                    "rate {rate} frame {i} due by its own time"
                );
                assert!(
                    due == 5 || s.due_by(due - 1) <= i,
                    "rate {rate} frame {i} early"
                );
            }
        }
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let s = Schedule {
            start_ns: 0,
            rate: 1_000,
        };
        // Frame 5 is due at 5 ms; sent at 7.5 ms it is 2.5 ms late,
        // and its ACK at 9 ms is a 4 ms latency, not 1.5 ms.
        assert_eq!(lateness_ns(s.due_ns(5), 7_500_000), 2_500_000);
        assert_eq!(lateness_ns(s.due_ns(5), 9_000_000), 4_000_000);
        // Sent early never counts negative.
        assert_eq!(lateness_ns(s.due_ns(5), 4_000_000), 0);
    }

    #[test]
    fn decisions_belong_to_the_last_ack_before_them() {
        let seen = [
            (Seen::Ack(0), 10),
            (Seen::Ack(1), 20),
            // Frame 1 flushed a batch: stage-1 SCORES, then two SCORES
            // with three stage-2 entries between them.
            (Seen::Scores { stage2: 0 }, 21),
            (Seen::Scores { stage2: 2 }, 22),
            (Seen::Scores { stage2: 1 }, 25),
            // A refusal does not move the attribution.
            (Seen::Other, 26),
            (Seen::Ack(2), 30),
            (Seen::Scores { stage2: 0 }, 31),
            (Seen::Ack(3), 40),
            (Seen::Scores { stage2: 4 }, 44),
            (Seen::Ack(4), 50),
            // The FINISH flush: ambiguous with frame 4, so dropped.
            (Seen::Scores { stage2: 1 }, 55),
            (Seen::Report, 60),
        ];
        assert_eq!(attribute(&seen), vec![(1, 25, 3), (3, 44, 4)]);
    }
}
