//! The `plx serve` wire protocol: length-prefixed frames with a typed
//! binary codec.
//!
//! A frame is an 8-byte header — the magic `PLXS` plus a `u32` LE body
//! length — followed by the body: one version byte, one opcode byte,
//! and the opcode's fields. All integers are little-endian; strings
//! and byte blobs are `u32` length-prefixed. There is no serde and no
//! text parsing on the hot path, in the same spirit as the `PLX` image
//! codec in `parallax-image`.
//!
//! Decoding is *total*: any byte soup produces a typed
//! [`ProtocolError`] carrying the offset of the first bad byte (body-
//! relative), never a panic and never an allocation proportional to an
//! attacker-chosen count. Length fields are validated against the
//! bytes actually present before anything is allocated, and the frame
//! header is validated against a configurable cap before the body is
//! read at all, so a hostile client cannot make the daemon allocate
//! unbounded memory.

use std::fmt;
use std::io::Read;

use parallax_engine::ShedReason;

/// Frame magic, first 4 bytes of every frame in both directions.
pub const MAGIC: [u8; 4] = *b"PLXS";
/// Protocol version carried in every body.
pub const VERSION: u8 = 1;
/// Frame header length: magic + `u32` body length.
pub const HEADER_LEN: usize = 8;
/// Default cap on the body length a peer may declare (16 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Cap on a single length-prefixed string (1 MiB — inline program
/// sources are the largest legitimate strings on the wire).
const MAX_STRING: usize = 1024 * 1024;
/// Cap on list counts (verification-function lists).
const MAX_LIST: usize = 256;

/// What went wrong while decoding, without position information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoErrorKind {
    /// The frame did not start with [`MAGIC`].
    BadMagic,
    /// The buffer ended before the field at `offset` was complete.
    Truncated,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A declared length exceeded the allowed cap.
    Oversize {
        /// The declared length.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// The body decoded cleanly but bytes remained after the last field.
    TrailingBytes,
    /// A field held a value outside its domain (named in the payload).
    BadValue(&'static str),
}

/// A typed decode failure: what went wrong and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolError {
    /// The failure class.
    pub kind: ProtoErrorKind,
    /// Byte offset of the first bad byte, relative to the start of the
    /// buffer handed to the decoder (the frame body for
    /// [`decode_request`] / [`decode_response`], the header for
    /// [`frame_len`]).
    pub offset: usize,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ProtoErrorKind::BadMagic => write!(f, "bad frame magic at offset {}", self.offset),
            ProtoErrorKind::Truncated => write!(f, "truncated at offset {}", self.offset),
            ProtoErrorKind::BadVersion(v) => {
                write!(f, "unknown protocol version {v} at offset {}", self.offset)
            }
            ProtoErrorKind::BadOpcode(op) => {
                write!(f, "unknown opcode 0x{op:02x} at offset {}", self.offset)
            }
            ProtoErrorKind::BadUtf8 => write!(f, "invalid UTF-8 at offset {}", self.offset),
            ProtoErrorKind::Oversize { len, max } => write!(
                f,
                "declared length {len} exceeds cap {max} at offset {}",
                self.offset
            ),
            ProtoErrorKind::TrailingBytes => {
                write!(f, "{} trailing bytes after last field", self.offset)
            }
            ProtoErrorKind::BadValue(what) => {
                write!(f, "bad {what} value at offset {}", self.offset)
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Where a protect request's program comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A named program from the built-in evaluation corpus.
    Corpus(String),
    /// Inline source text in the toy language, compiled server-side.
    Inline(String),
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Protect a program and return the protected image.
    Protect {
        /// The program to protect.
        spec: JobSpec,
        /// Chain-mode name (`""` for the default mode); resolved
        /// server-side via the batch-manifest mode table.
        mode: String,
        /// Protection seed.
        seed: u64,
        /// Verification functions (empty for the corpus default).
        verify: Vec<String>,
    },
    /// Verify a protected image fail-closed and report the outcome.
    Verify {
        /// The serialized `PLX` image.
        image: Vec<u8>,
        /// Use the strict (provenance-requiring) verifier.
        strict: bool,
    },
    /// Fetch the live metrics snapshot.
    Status,
    /// Fetch the rendered service report (latency quantiles, shed
    /// taxonomy) built from the daemon's `serve.*` counters.
    Report,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

impl Request {
    /// Every [`Request::kind`] tag, in display order.
    pub const KINDS: [&'static str; 5] = ["protect", "verify", "status", "report", "shutdown"];

    /// Stable request-kind tag, used for `serve.requests.*` counters
    /// and per-kind latency histogram names.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Protect { .. } => "protect",
            Request::Verify { .. } => "verify",
            Request::Status => "status",
            Request::Report => "report",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The protected image and its summary.
    Protected {
        /// Serialized `PLX` image bytes.
        image: Vec<u8>,
        /// Gadgets surviving selection.
        gadget_count: u32,
        /// Whether the result was served from the warm artifact cache.
        cached: bool,
        /// Server-side job wall time in microseconds.
        micros: u64,
    },
    /// Outcome of a verify request.
    VerifyResult {
        /// Whether the image passed fail-closed verification.
        ok: bool,
        /// Human-readable verifier detail (error text when `!ok`).
        detail: String,
    },
    /// The live metrics snapshot.
    Status {
        /// Daemon uptime in microseconds.
        uptime_us: u64,
        /// Jobs admitted since start.
        admitted: u64,
        /// Jobs shed since start.
        shed: u64,
        /// Current admission-queue depth.
        queue_depth: u32,
        /// Rendered `MetricsSnapshot` text block followed by the
        /// service report.
        text: String,
    },
    /// The rendered service report.
    Report {
        /// Rendered report text.
        text: String,
    },
    /// The job was refused by admission control (typed load shedding).
    Refused {
        /// Why the job was shed.
        reason: ShedReason,
        /// Context (queue depth, capacity, drain state).
        detail: String,
    },
    /// The job was admitted but failed in the pipeline.
    Error {
        /// The pipeline error, with stage provenance.
        detail: String,
    },
    /// Acknowledgement of a shutdown request; the daemon is draining.
    ShuttingDown,
}

// ----- opcodes -----

const OP_PROTECT: u8 = 0x01;
const OP_VERIFY: u8 = 0x02;
const OP_STATUS: u8 = 0x03;
const OP_REPORT: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;

const OP_PROTECTED: u8 = 0x81;
const OP_VERIFY_RESULT: u8 = 0x82;
const OP_STATUS_RESULT: u8 = 0x83;
const OP_REPORT_RESULT: u8 = 0x84;
const OP_REFUSED: u8 = 0x85;
const OP_ERROR: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;

const SPEC_CORPUS: u8 = 0;
const SPEC_INLINE: u8 = 1;

fn shed_code(r: ShedReason) -> u8 {
    match r {
        ShedReason::QueueFull => 0,
        ShedReason::Shutdown => 1,
        ShedReason::Oversize => 2,
        ShedReason::Timeout => 3,
    }
}

fn shed_of(code: u8) -> Option<ShedReason> {
    ShedReason::ALL
        .iter()
        .copied()
        .find(|r| shed_code(*r) == code)
}

// ----- encoding -----

struct Enc {
    body: Vec<u8>,
}

impl Enc {
    fn new(opcode: u8) -> Enc {
        Enc {
            body: vec![VERSION, opcode],
        }
    }
    fn u8(&mut self, v: u8) {
        self.body.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.body.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    fn strings(&mut self, v: &[String]) {
        self.u32(v.len() as u32);
        for s in v {
            self.string(s);
        }
    }
    /// Prepends the frame header and returns the full frame.
    fn frame(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Encodes a request as a complete frame (header + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e;
    match req {
        Request::Protect {
            spec,
            mode,
            seed,
            verify,
        } => {
            e = Enc::new(OP_PROTECT);
            match spec {
                JobSpec::Corpus(name) => {
                    e.u8(SPEC_CORPUS);
                    e.string(name);
                }
                JobSpec::Inline(src) => {
                    e.u8(SPEC_INLINE);
                    e.string(src);
                }
            }
            e.string(mode);
            e.u64(*seed);
            e.strings(verify);
        }
        Request::Verify { image, strict } => {
            e = Enc::new(OP_VERIFY);
            e.bytes(image);
            e.u8(u8::from(*strict));
        }
        Request::Status => e = Enc::new(OP_STATUS),
        Request::Report => e = Enc::new(OP_REPORT),
        Request::Shutdown => e = Enc::new(OP_SHUTDOWN),
    }
    e.frame()
}

/// Encodes a response as a complete frame (header + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e;
    match resp {
        Response::Protected {
            image,
            gadget_count,
            cached,
            micros,
        } => {
            e = Enc::new(OP_PROTECTED);
            e.bytes(image);
            e.u32(*gadget_count);
            e.u8(u8::from(*cached));
            e.u64(*micros);
        }
        Response::VerifyResult { ok, detail } => {
            e = Enc::new(OP_VERIFY_RESULT);
            e.u8(u8::from(*ok));
            e.string(detail);
        }
        Response::Status {
            uptime_us,
            admitted,
            shed,
            queue_depth,
            text,
        } => {
            e = Enc::new(OP_STATUS_RESULT);
            e.u64(*uptime_us);
            e.u64(*admitted);
            e.u64(*shed);
            e.u32(*queue_depth);
            e.string(text);
        }
        Response::Report { text } => {
            e = Enc::new(OP_REPORT_RESULT);
            e.string(text);
        }
        Response::Refused { reason, detail } => {
            e = Enc::new(OP_REFUSED);
            e.u8(shed_code(*reason));
            e.string(detail);
        }
        Response::Error { detail } => {
            e = Enc::new(OP_ERROR);
            e.string(detail);
        }
        Response::ShuttingDown => e = Enc::new(OP_SHUTTING_DOWN),
    }
    e.frame()
}

// ----- decoding -----

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn err(&self, kind: ProtoErrorKind) -> ProtocolError {
        ProtocolError {
            kind,
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(self.err(ProtoErrorKind::Truncated));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, ProtocolError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError {
                kind: ProtoErrorKind::BadValue(what),
                offset: at,
            }),
        }
    }

    /// A length-prefixed blob. The declared length is validated against
    /// the bytes actually remaining *before* any allocation, so a
    /// hostile length can never trigger an oversized reservation.
    fn bytes(&mut self, cap: usize) -> Result<Vec<u8>, ProtocolError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        if len > cap {
            return Err(ProtocolError {
                kind: ProtoErrorKind::Oversize {
                    len: len as u64,
                    max: cap as u64,
                },
                offset: at,
            });
        }
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let at = self.pos;
        let raw = self.bytes(MAX_STRING)?;
        String::from_utf8(raw).map_err(|_| ProtocolError {
            kind: ProtoErrorKind::BadUtf8,
            offset: at,
        })
    }

    fn strings(&mut self) -> Result<Vec<String>, ProtocolError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > MAX_LIST {
            return Err(ProtocolError {
                kind: ProtoErrorKind::Oversize {
                    len: n as u64,
                    max: MAX_LIST as u64,
                },
                offset: at,
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.string()?);
        }
        Ok(out)
    }

    /// Fails with [`ProtoErrorKind::TrailingBytes`] unless the buffer
    /// is fully consumed; the offset carries the leftover count.
    fn finish<T>(self, v: T) -> Result<T, ProtocolError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(ProtocolError {
                kind: ProtoErrorKind::TrailingBytes,
                offset: left,
            });
        }
        Ok(v)
    }

    /// Common body prelude: version byte. Returns the opcode.
    fn prelude(&mut self) -> Result<u8, ProtocolError> {
        let at = self.pos;
        let v = self.u8()?;
        if v != VERSION {
            return Err(ProtocolError {
                kind: ProtoErrorKind::BadVersion(v),
                offset: at,
            });
        }
        self.u8()
    }
}

/// Validates a frame header and returns the body length.
///
/// `max_frame` bounds the length a peer may declare; a violation is a
/// typed [`ProtoErrorKind::Oversize`] *before* any body byte is read,
/// which is what keeps a hostile client from OOMing the daemon.
pub fn frame_len(header: &[u8; HEADER_LEN], max_frame: u32) -> Result<usize, ProtocolError> {
    if header[..4] != MAGIC {
        return Err(ProtocolError {
            kind: ProtoErrorKind::BadMagic,
            offset: 0,
        });
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > max_frame {
        return Err(ProtocolError {
            kind: ProtoErrorKind::Oversize {
                len: len as u64,
                max: max_frame as u64,
            },
            offset: 4,
        });
    }
    Ok(len as usize)
}

/// Decodes a request body (the bytes after the 8-byte header).
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let mut d = Dec::new(body);
    let op_at = d.pos + 1;
    let op = d.prelude()?;
    match op {
        OP_PROTECT => {
            let tag_at = d.pos;
            let tag = d.u8()?;
            let spec = match tag {
                SPEC_CORPUS => JobSpec::Corpus(d.string()?),
                SPEC_INLINE => JobSpec::Inline(d.string()?),
                _ => {
                    return Err(ProtocolError {
                        kind: ProtoErrorKind::BadValue("job-spec tag"),
                        offset: tag_at,
                    })
                }
            };
            let mode = d.string()?;
            let seed = d.u64()?;
            let verify = d.strings()?;
            d.finish(Request::Protect {
                spec,
                mode,
                seed,
                verify,
            })
        }
        OP_VERIFY => {
            let image = d.bytes(usize::MAX)?;
            let strict = d.bool("strict flag")?;
            d.finish(Request::Verify { image, strict })
        }
        OP_STATUS => d.finish(Request::Status),
        OP_REPORT => d.finish(Request::Report),
        OP_SHUTDOWN => d.finish(Request::Shutdown),
        other => Err(ProtocolError {
            kind: ProtoErrorKind::BadOpcode(other),
            offset: op_at,
        }),
    }
}

/// Decodes a response body (the bytes after the 8-byte header).
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    let mut d = Dec::new(body);
    let op_at = d.pos + 1;
    let op = d.prelude()?;
    match op {
        OP_PROTECTED => {
            let image = d.bytes(usize::MAX)?;
            let gadget_count = d.u32()?;
            let cached = d.bool("cached flag")?;
            let micros = d.u64()?;
            d.finish(Response::Protected {
                image,
                gadget_count,
                cached,
                micros,
            })
        }
        OP_VERIFY_RESULT => {
            let ok = d.bool("ok flag")?;
            let detail = d.string()?;
            d.finish(Response::VerifyResult { ok, detail })
        }
        OP_STATUS_RESULT => {
            let uptime_us = d.u64()?;
            let admitted = d.u64()?;
            let shed = d.u64()?;
            let queue_depth = d.u32()?;
            let text = d.string()?;
            d.finish(Response::Status {
                uptime_us,
                admitted,
                shed,
                queue_depth,
                text,
            })
        }
        OP_REPORT_RESULT => {
            let text = d.string()?;
            d.finish(Response::Report { text })
        }
        OP_REFUSED => {
            let code_at = d.pos;
            let code = d.u8()?;
            let reason = shed_of(code).ok_or(ProtocolError {
                kind: ProtoErrorKind::BadValue("shed-reason code"),
                offset: code_at,
            })?;
            let detail = d.string()?;
            d.finish(Response::Refused { reason, detail })
        }
        OP_ERROR => {
            let detail = d.string()?;
            d.finish(Response::Error { detail })
        }
        OP_SHUTTING_DOWN => d.finish(Response::ShuttingDown),
        other => Err(ProtocolError {
            kind: ProtoErrorKind::BadOpcode(other),
            offset: op_at,
        }),
    }
}

// ----- stream I/O -----

/// A transport-level failure while exchanging frames.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed (includes read/write timeouts).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(ProtocolError),
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Protocol(e) => write!(f, "protocol: {e}"),
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> WireError {
        WireError::Protocol(e)
    }
}

/// Reads one frame body from `r`, honouring `max_frame`.
///
/// Distinguishes a clean close *between* frames ([`WireError::Closed`])
/// from a close mid-frame (an [`WireError::Io`] unexpected-EOF): the
/// former is how clients normally hang up.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Err(WireError::Closed);
            }
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-header",
            )));
        }
        got += n;
    }
    let len = frame_len(&header, max_frame)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(&req);
        let len = frame_len(
            frame[..HEADER_LEN].try_into().expect("header"),
            DEFAULT_MAX_FRAME,
        )
        .expect("header valid");
        assert_eq!(len, frame.len() - HEADER_LEN);
        let got = decode_request(&frame[HEADER_LEN..]).expect("decodes");
        assert_eq!(got, req);
    }

    fn roundtrip_response(resp: Response) {
        let frame = encode_response(&resp);
        let got = decode_response(&frame[HEADER_LEN..]).expect("decodes");
        assert_eq!(got, resp);
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip_request(Request::Protect {
            spec: JobSpec::Corpus("wget".into()),
            mode: "xor".into(),
            seed: 0x5eed,
            verify: vec!["vf".into(), "vf2".into()],
        });
        roundtrip_request(Request::Protect {
            spec: JobSpec::Inline("fn main() { return 1; }".into()),
            mode: String::new(),
            seed: 0,
            verify: vec![],
        });
        roundtrip_request(Request::Verify {
            image: vec![0x50, 0x4c, 0x58, 0x00],
            strict: true,
        });
        roundtrip_request(Request::Status);
        roundtrip_request(Request::Report);
        roundtrip_request(Request::Shutdown);

        roundtrip_response(Response::Protected {
            image: vec![1, 2, 3],
            gadget_count: 42,
            cached: true,
            micros: 1234,
        });
        roundtrip_response(Response::VerifyResult {
            ok: false,
            detail: "image: bad magic".into(),
        });
        roundtrip_response(Response::Status {
            uptime_us: 55,
            admitted: 9,
            shed: 2,
            queue_depth: 1,
            text: "jobs 9\n".into(),
        });
        roundtrip_response(Response::Report {
            text: "service\n".into(),
        });
        for reason in ShedReason::ALL {
            roundtrip_response(Response::Refused {
                reason,
                detail: format!("queue full ({reason})"),
            });
        }
        roundtrip_response(Response::Error {
            detail: "gadget-scan: no gadgets".into(),
        });
        roundtrip_response(Response::ShuttingDown);
    }

    #[test]
    fn header_rejections_are_typed() {
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(b"nope");
        assert_eq!(
            frame_len(&h, DEFAULT_MAX_FRAME)
                .expect_err("bad magic")
                .kind,
            ProtoErrorKind::BadMagic
        );
        h[..4].copy_from_slice(&MAGIC);
        h[4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = frame_len(&h, 1024).expect_err("oversize");
        assert!(matches!(
            err.kind,
            ProtoErrorKind::Oversize { max: 1024, .. }
        ));
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn truncations_carry_offsets() {
        let frame = encode_request(&Request::Protect {
            spec: JobSpec::Corpus("wget".into()),
            mode: "xor".into(),
            seed: 1,
            verify: vec!["vf".into()],
        });
        let body = &frame[HEADER_LEN..];
        // Every strict prefix of a valid body must fail typed, and the
        // reported offset must stay inside the prefix.
        for cut in 0..body.len() {
            let err = decode_request(&body[..cut]).expect_err("prefix must not decode");
            assert!(err.offset <= cut, "offset {} beyond cut {cut}", err.offset);
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A verify body declaring a huge image length with no bytes
        // behind it: rejected as truncated, not allocated.
        let mut e = Enc::new(OP_VERIFY);
        e.u32(u32::MAX);
        let frame = e.frame();
        let err = decode_request(&frame[HEADER_LEN..]).expect_err("rejects");
        assert_eq!(err.kind, ProtoErrorKind::Truncated);

        // A strings count beyond the list cap is a typed oversize.
        let mut e = Enc::new(OP_PROTECT);
        e.u8(SPEC_CORPUS);
        e.string("wget");
        e.string("");
        e.u64(0);
        e.u32(u32::MAX); // verify-list count
        let frame = e.frame();
        let err = decode_request(&frame[HEADER_LEN..]).expect_err("rejects");
        assert!(matches!(err.kind, ProtoErrorKind::Oversize { .. }));
    }

    #[test]
    fn trailing_bytes_and_bad_enums_are_typed() {
        let mut frame = encode_request(&Request::Status);
        frame.push(0xff);
        // Fix up the declared length to include the junk byte.
        let body_len = (frame.len() - HEADER_LEN) as u32;
        frame[4..8].copy_from_slice(&body_len.to_le_bytes());
        let err = decode_request(&frame[HEADER_LEN..]).expect_err("rejects");
        assert_eq!(err.kind, ProtoErrorKind::TrailingBytes);

        let mut e = Enc::new(OP_REFUSED);
        e.u8(0x7f); // unknown shed-reason code
        e.string("");
        let frame = e.frame();
        let err = decode_response(&frame[HEADER_LEN..]).expect_err("rejects");
        assert_eq!(err.kind, ProtoErrorKind::BadValue("shed-reason code"));

        let err = decode_request(&[9, OP_STATUS]).expect_err("bad version");
        assert_eq!(err.kind, ProtoErrorKind::BadVersion(9));
        let err = decode_request(&[VERSION, 0x7e]).expect_err("bad opcode");
        assert_eq!(err.kind, ProtoErrorKind::BadOpcode(0x7e));
    }
}
