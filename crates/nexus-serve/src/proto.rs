//! The framed wire protocol of the front door.
//!
//! Every message travels as a length-prefixed frame over plain TCP: a
//! `u32` little-endian payload length, then the payload — one type-tag
//! byte followed by fixed-width little-endian fields. No external
//! serialization framework (the build is offline) and no panics on
//! malformed input: a truncated, oversized, or unknown frame is a typed
//! [`ProtoError`], because the peer on the other end of a socket is never
//! trusted to be well-behaved.
//!
//! Message families:
//! - data plane: [`Msg::Submit`]/[`Msg::Done`] between client and
//!   frontend, [`Msg::Exec`]/[`Msg::ExecDone`] between frontend and
//!   backend;
//! - health: [`Msg::Ping`]/[`Msg::Pong`] (frontend probes backends; the
//!   driver may probe frontends);
//! - control plane: [`Msg::EpochBegin`] → [`Msg::EpochRoute`]* →
//!   [`Msg::EpochCommit`] pushes one epoch-versioned routing table, acked
//!   with [`Msg::EpochAck`]. The three-phase framing is what makes
//!   mid-traffic updates safe: a partial push is discardable and the
//!   previous epoch keeps serving until the commit lands.

use std::fmt;
use std::io::{Read, Write};

use nexus_runtime::DropCause;

/// Hard cap on a frame's payload size. Nothing the protocol carries comes
/// close; anything larger is a corrupt or hostile peer.
pub const MAX_FRAME: u32 = 64 * 1024;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message did.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes the payload had left.
        have: usize,
    },
    /// Unknown message tag.
    BadTag(u8),
    /// Unknown enum discriminant inside a message body.
    BadValue(&'static str),
    /// The frame header announced a payload beyond [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The payload decoded but left unconsumed bytes behind.
    TrailingBytes {
        /// Total payload size.
        frame: usize,
        /// Bytes the message actually used.
        used: usize,
    },
    /// The underlying socket failed (includes clean EOF and timeouts;
    /// the kind disambiguates).
    Io(std::io::ErrorKind),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { need, have } => {
                write!(f, "truncated frame: needed {need} bytes, had {have}")
            }
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::BadValue(what) => write!(f, "invalid value for {what}"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME} cap")
            }
            ProtoError::TrailingBytes { frame, used } => {
                write!(f, "frame of {frame} bytes but message used only {used}")
            }
            ProtoError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.kind())
    }
}

/// Terminal status of one request, as reported in [`Msg::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Served within its deadline budget.
    Completed,
    /// Dropped, with the same typed cause taxonomy the simulator uses.
    Dropped(DropCause),
}

fn verdict_to_wire(v: Verdict) -> u8 {
    match v {
        Verdict::Completed => 0,
        Verdict::Dropped(DropCause::NoRoute) => 1,
        Verdict::Dropped(DropCause::EarlySacrifice) => 2,
        Verdict::Dropped(DropCause::Expired) => 3,
        Verdict::Dropped(DropCause::Orphaned) => 4,
        Verdict::Dropped(DropCause::Stranded) => 5,
        Verdict::Dropped(DropCause::RunEnd) => 6,
        Verdict::Dropped(DropCause::AdmissionRejected) => 7,
    }
}

fn verdict_from_wire(b: u8) -> Result<Verdict, ProtoError> {
    Ok(match b {
        0 => Verdict::Completed,
        1 => Verdict::Dropped(DropCause::NoRoute),
        2 => Verdict::Dropped(DropCause::EarlySacrifice),
        3 => Verdict::Dropped(DropCause::Expired),
        4 => Verdict::Dropped(DropCause::Orphaned),
        5 => Verdict::Dropped(DropCause::Stranded),
        6 => Verdict::Dropped(DropCause::RunEnd),
        7 => Verdict::Dropped(DropCause::AdmissionRejected),
        _ => return Err(ProtoError::BadValue("verdict")),
    })
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Client → frontend: serve one request with `budget_us` of deadline
    /// budget from the moment the frontend admits it.
    Submit {
        /// Client-chosen request id, echoed in [`Msg::Done`].
        request: u64,
        /// Session the request belongs to.
        session: u32,
        /// SLO deadline budget in microseconds.
        budget_us: u64,
    },
    /// Frontend → client: terminal outcome of a submit.
    Done {
        /// Echoed request id.
        request: u64,
        /// Completed or dropped-with-cause.
        verdict: Verdict,
        /// Frontend-measured latency (admission to completion), µs.
        latency_us: u64,
        /// Whether a failed first dispatch was retried to a different
        /// backend (the `Retried` trace marker).
        retried: bool,
    },
    /// Frontend → backend: execute one request.
    Exec {
        /// Request id (unique per frontend).
        request: u64,
        /// Session to execute under.
        session: u32,
        /// Nominal single-item execution cost, µs (the backend model
        /// decides what to do with it).
        cost_us: u64,
    },
    /// Backend → frontend: execution finished.
    ExecDone {
        /// Echoed request id.
        request: u64,
        /// Whether execution succeeded.
        ok: bool,
    },
    /// Liveness probe.
    Ping {
        /// Echo value.
        seq: u64,
    },
    /// Probe response.
    Pong {
        /// Echoed value.
        seq: u64,
    },
    /// Scheduler → frontend: start pushing routing epoch `epoch`.
    EpochBegin {
        /// The epoch being pushed.
        epoch: u64,
    },
    /// Scheduler → frontend: one session's replica set in the pending
    /// epoch.
    EpochRoute {
        /// Session id.
        session: u32,
        /// Backend ids serving the session in the new epoch.
        backends: Vec<u32>,
    },
    /// Scheduler → frontend: atomically apply the pending epoch.
    EpochCommit {
        /// Must match the pending [`Msg::EpochBegin`].
        epoch: u64,
    },
    /// Frontend → scheduler: the epoch is fully applied.
    EpochAck {
        /// The applied epoch.
        epoch: u64,
    },
}

const TAG_SUBMIT: u8 = 1;
const TAG_DONE: u8 = 2;
const TAG_EXEC: u8 = 3;
const TAG_EXEC_DONE: u8 = 4;
const TAG_PING: u8 = 5;
const TAG_PONG: u8 = 6;
const TAG_EPOCH_BEGIN: u8 = 7;
const TAG_EPOCH_ROUTE: u8 = 8;
const TAG_EPOCH_COMMIT: u8 = 9;
const TAG_EPOCH_ACK: u8 = 10;

/// Encodes `msg` (payload only, no length prefix) into `buf`.
pub fn encode(msg: &Msg, buf: &mut Vec<u8>) {
    buf.clear();
    match msg {
        Msg::Submit {
            request,
            session,
            budget_us,
        } => {
            buf.push(TAG_SUBMIT);
            buf.extend_from_slice(&request.to_le_bytes());
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&budget_us.to_le_bytes());
        }
        Msg::Done {
            request,
            verdict,
            latency_us,
            retried,
        } => {
            buf.push(TAG_DONE);
            buf.extend_from_slice(&request.to_le_bytes());
            buf.push(verdict_to_wire(*verdict));
            buf.extend_from_slice(&latency_us.to_le_bytes());
            buf.push(u8::from(*retried));
        }
        Msg::Exec {
            request,
            session,
            cost_us,
        } => {
            buf.push(TAG_EXEC);
            buf.extend_from_slice(&request.to_le_bytes());
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&cost_us.to_le_bytes());
        }
        Msg::ExecDone { request, ok } => {
            buf.push(TAG_EXEC_DONE);
            buf.extend_from_slice(&request.to_le_bytes());
            buf.push(u8::from(*ok));
        }
        Msg::Ping { seq } => {
            buf.push(TAG_PING);
            buf.extend_from_slice(&seq.to_le_bytes());
        }
        Msg::Pong { seq } => {
            buf.push(TAG_PONG);
            buf.extend_from_slice(&seq.to_le_bytes());
        }
        Msg::EpochBegin { epoch } => {
            buf.push(TAG_EPOCH_BEGIN);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Msg::EpochRoute { session, backends } => {
            buf.push(TAG_EPOCH_ROUTE);
            buf.extend_from_slice(&session.to_le_bytes());
            // The u16 replica count allows 65 535 × 4 B ≈ 256 KiB, past
            // MAX_FRAME: `write_frame` refuses a route over 16 382
            // replicas, before encoding, rather than send a frame every
            // reader rejects.
            let n = u16::try_from(backends.len()).expect("replica set fits in u16");
            buf.extend_from_slice(&n.to_le_bytes());
            for b in backends {
                buf.extend_from_slice(&b.to_le_bytes());
            }
        }
        Msg::EpochCommit { epoch } => {
            buf.push(TAG_EPOCH_COMMIT);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Msg::EpochAck { epoch } => {
            buf.push(TAG_EPOCH_ACK);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian reader over a payload.
struct Rd<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let have = self.bytes.len() - self.pos;
        if have < n {
            return Err(ProtoError::Truncated { need: n, have });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Decodes one payload. Every failure is a typed error; trailing bytes
/// are rejected (a frame carries exactly one message).
pub fn decode(payload: &[u8]) -> Result<Msg, ProtoError> {
    let mut rd = Rd {
        bytes: payload,
        pos: 0,
    };
    let msg = match rd.u8()? {
        TAG_SUBMIT => Msg::Submit {
            request: rd.u64()?,
            session: rd.u32()?,
            budget_us: rd.u64()?,
        },
        TAG_DONE => Msg::Done {
            request: rd.u64()?,
            verdict: verdict_from_wire(rd.u8()?)?,
            latency_us: rd.u64()?,
            retried: match rd.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::BadValue("retried")),
            },
        },
        TAG_EXEC => Msg::Exec {
            request: rd.u64()?,
            session: rd.u32()?,
            cost_us: rd.u64()?,
        },
        TAG_EXEC_DONE => Msg::ExecDone {
            request: rd.u64()?,
            ok: match rd.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::BadValue("ok")),
            },
        },
        TAG_PING => Msg::Ping { seq: rd.u64()? },
        TAG_PONG => Msg::Pong { seq: rd.u64()? },
        TAG_EPOCH_BEGIN => Msg::EpochBegin { epoch: rd.u64()? },
        TAG_EPOCH_ROUTE => {
            let session = rd.u32()?;
            let n = rd.u16()? as usize;
            let mut backends = Vec::with_capacity(n);
            for _ in 0..n {
                backends.push(rd.u32()?);
            }
            Msg::EpochRoute { session, backends }
        }
        TAG_EPOCH_COMMIT => Msg::EpochCommit { epoch: rd.u64()? },
        TAG_EPOCH_ACK => Msg::EpochAck { epoch: rd.u64()? },
        other => return Err(ProtoError::BadTag(other)),
    };
    if rd.pos != payload.len() {
        return Err(ProtoError::TrailingBytes {
            frame: payload.len(),
            used: rd.pos,
        });
    }
    Ok(msg)
}

/// Writes one length-prefixed frame. A payload over [`MAX_FRAME`], which
/// every [`read_frame`] would reject, is refused with
/// [`ProtoError::FrameTooLarge`] before any byte is written.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> Result<(), ProtoError> {
    // A route's size (tag, session, u16 count, 4 B per replica) is known
    // before `encode`, which cannot count past 65 535 replicas.
    if let Msg::EpochRoute { backends, .. } = msg {
        let len = 7 + 4 * backends.len() as u64;
        if len > u64::from(MAX_FRAME) {
            return Err(ProtoError::FrameTooLarge(
                u32::try_from(len).unwrap_or(u32::MAX),
            ));
        }
    }
    let mut payload = Vec::with_capacity(32);
    encode(msg, &mut payload);
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Consecutive read timeouts tolerated *mid-frame* before the frame is
/// declared dead. Idle timeouts (zero bytes of the frame read) surface
/// immediately so pollers can check their shutdown flags.
const MID_FRAME_STALL_LIMIT: u32 = 200;

/// Fills `buf` across short reads. With `idle_ok`, a timeout before the
/// first byte propagates as [`ProtoError::Io`] (the caller is polling);
/// once any byte has arrived the read resumes across timeouts — a frame
/// split across TCP segments must not desync the stream — up to
/// [`MID_FRAME_STALL_LIMIT`] consecutive stalls.
fn read_full(r: &mut impl Read, buf: &mut [u8], idle_ok: bool) -> Result<(), ProtoError> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtoError::Io(std::io::ErrorKind::UnexpectedEof)),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if idle_ok && filled == 0 {
                    return Err(ProtoError::Io(e.kind()));
                }
                stalls += 1;
                if stalls >= MID_FRAME_STALL_LIMIT {
                    return Err(ProtoError::Io(std::io::ErrorKind::TimedOut));
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame. A peer announcing more than
/// [`MAX_FRAME`] bytes is rejected before any allocation. A read-timeout
/// error with zero bytes consumed means "no frame yet" and leaves the
/// stream aligned; any later timeout is retried internally so a frame
/// straddling TCP segments cannot desync the connection.
pub fn read_frame(r: &mut impl Read) -> Result<Msg, ProtoError> {
    let mut head = [0u8; 4];
    read_full(r, &mut head, true)?;
    let len = u32::from_le_bytes(head);
    if len > MAX_FRAME {
        return Err(ProtoError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_full(r, &mut payload, false)?;
    decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Msg> {
        vec![
            Msg::Submit {
                request: 7,
                session: 3,
                budget_us: 100_000,
            },
            Msg::Done {
                request: 7,
                verdict: Verdict::Completed,
                latency_us: 420,
                retried: true,
            },
            Msg::Done {
                request: 9,
                verdict: Verdict::Dropped(DropCause::AdmissionRejected),
                latency_us: 0,
                retried: false,
            },
            Msg::Exec {
                request: 7,
                session: 3,
                cost_us: 55_000,
            },
            Msg::ExecDone {
                request: 7,
                ok: true,
            },
            Msg::Ping { seq: 41 },
            Msg::Pong { seq: 41 },
            Msg::EpochBegin { epoch: 2 },
            Msg::EpochRoute {
                session: 3,
                backends: vec![0, 2, 5],
            },
            Msg::EpochRoute {
                session: 0,
                backends: vec![],
            },
            Msg::EpochCommit { epoch: 2 },
            Msg::EpochAck { epoch: 2 },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            encode(&msg, &mut buf);
            assert_eq!(decode(&buf).expect("round trip"), msg, "{msg:?}");
        }
    }

    #[test]
    fn every_truncated_prefix_is_a_typed_error() {
        let mut buf = Vec::new();
        for msg in all_messages() {
            encode(&msg, &mut buf);
            for cut in 0..buf.len() {
                match decode(&buf[..cut]) {
                    Err(ProtoError::Truncated { .. }) => {}
                    other => panic!("{msg:?} cut at {cut}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bad_tags_and_values_are_rejected() {
        assert_eq!(decode(&[99]), Err(ProtoError::BadTag(99)));
        // A Done frame with an out-of-range verdict byte.
        let mut buf = Vec::new();
        encode(
            &Msg::Done {
                request: 1,
                verdict: Verdict::Completed,
                latency_us: 0,
                retried: false,
            },
            &mut buf,
        );
        buf[9] = 200;
        assert_eq!(decode(&buf), Err(ProtoError::BadValue("verdict")));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode(&Msg::Ping { seq: 1 }, &mut buf);
        buf.push(0);
        assert!(matches!(
            decode(&buf),
            Err(ProtoError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        for msg in all_messages() {
            write_frame(&mut wire, &msg).expect("write");
        }
        let mut rd = &wire[..];
        for msg in all_messages() {
            assert_eq!(read_frame(&mut rd).expect("read"), msg);
        }
        // Stream exhausted: the next read is a clean EOF error, not a
        // panic.
        assert!(matches!(read_frame(&mut rd), Err(ProtoError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut rd = &wire[..];
        assert_eq!(
            read_frame(&mut rd),
            Err(ProtoError::FrameTooLarge(MAX_FRAME + 1))
        );
    }

    #[test]
    fn oversized_routes_are_refused_before_any_byte_is_written() {
        let route = |n: u32| Msg::EpochRoute {
            session: 1,
            backends: (0..n).collect(),
        };
        // 7 header bytes + 4 per replica: 16 382 replicas is the largest
        // route that fits.
        let mut wire = Vec::new();
        write_frame(&mut wire, &route(16_382)).expect("fits MAX_FRAME");
        assert_eq!(read_frame(&mut &wire[..]).expect("read"), route(16_382));
        // Past the u16 replica count too: refused, not a panic in `encode`.
        for n in [16_384, 65_536] {
            let mut wire = Vec::new();
            assert_eq!(
                write_frame(&mut wire, &route(n)),
                Err(ProtoError::FrameTooLarge(7 + 4 * n))
            );
            assert!(
                wire.is_empty(),
                "a refused frame wrote {} bytes",
                wire.len()
            );
        }
    }
}
