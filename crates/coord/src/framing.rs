//! The `FNC1` wire: length-prefixed frames, and the one network shell
//! both daemons and every client run on top of them.
//!
//! One frame is `b"FNC1"` (magic) + payload length as a `u32` LE +
//! payload bytes. The magic catches a peer that is not speaking this
//! protocol at all (an HTTP probe, a stray telnet) before any payload is
//! trusted; the length cap bounds how much one frame may carry, and the
//! payload buffer grows only as its bytes arrive, so a bare header
//! cannot make a connection thread reserve the cap. [`read_frame`] and
//! [`write_frame`] are plain `io::Read`/`io::Write`, so the same codec
//! serves `TcpStream` in production and `Vec<u8>` cursors in tests.
//!
//! Above the frames sits the shell (DESIGN.md §22): [`serve`] is the
//! accept loop of `fnas-coord` and `fnas-serve` alike, parameterised by
//! an [`Endpoint`], and [`call`] is the one client exchange that
//! workers, the `fnas-serve` CLI and the tests use. One request per
//! connection, and the client always closes first.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fnas::FnasError;
use fnas_codec as codec;

use crate::proto::{Request, Response};

/// Frame magic: protocol "FNC", wire revision 1.
pub const MAGIC: [u8; 4] = *b"FNC1";

/// Hard cap on one frame's payload (64 MiB). Checkpoints for paper-scale
/// runs are a few hundred KiB; anything near the cap is an error, not a
/// workload.
pub const MAX_FRAME: u32 = 64 << 20;

/// Read and write timeout of every wire socket, on both ends.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`serve`] sleeps when no connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn corrupt(what: &str) -> FnasError {
    FnasError::InvalidConfig {
        what: format!("coord frame: {what}"),
    }
}

/// Writes `payload` as one frame.
///
/// # Errors
///
/// [`FnasError::InvalidConfig`] when `payload` exceeds [`MAX_FRAME`];
/// I/O errors from the underlying stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> fnas::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            corrupt(&format!(
                "payload of {} bytes exceeds the frame cap",
                payload.len()
            ))
        })?;
    w.write_all(&MAGIC)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`FnasError::InvalidConfig`] on a bad magic or an oversized length;
/// I/O errors (including EOF) from the underlying stream.
pub fn read_frame<R: Read>(r: &mut R) -> fnas::Result<Vec<u8>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let (magic, len) = codec::decode(&header, |h| Ok((h.raw(4)?, h.u32()?)))
        .map_err(|e| corrupt(&e.to_string()))?;
    if magic != MAGIC {
        return Err(corrupt(&format!(
            "bad magic {magic:02x?} (peer is not speaking FNC1)"
        )));
    }
    if len > MAX_FRAME {
        return Err(corrupt(&format!(
            "declared payload of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    // Grow with the bytes that arrive: the header alone is a claim, not
    // a reason to reserve up to `MAX_FRAME`.
    let mut payload = Vec::new();
    r.take(len.into()).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into());
    }
    Ok(payload)
}

/// What a daemon plugs into [`serve`]: the protocol semantics of one
/// request, and when its work is over.
pub trait Endpoint: Send + Sync + 'static {
    /// Answers one decoded request.
    fn answer(&self, request: &Request) -> Response;

    /// Whether the daemon is done; [`serve`] returns once this has held
    /// for its linger. Polled every few milliseconds, so it must be cheap.
    fn finished(&self) -> bool;
}

/// Serves `endpoint` on `listener`: one thread per connection, one
/// request per connection. Returns once [`Endpoint::finished`] has held
/// for `linger` (so late pollers still hear `Finished`); the linger
/// restarts if `finished` turns false again.
///
/// # Errors
///
/// Listener I/O errors. Per-connection errors (a peer that hangs up
/// mid-frame, a malformed request) are contained to that connection.
pub fn serve<E: Endpoint>(
    endpoint: &Arc<E>,
    listener: TcpListener,
    linger: Duration,
) -> fnas::Result<()> {
    listener.set_nonblocking(true)?;
    let mut finished_at: Option<Instant> = None;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let endpoint = Arc::clone(endpoint);
                std::thread::spawn(move || answer_one(&*endpoint, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => return Err(e.into()),
        }
        if !endpoint.finished() {
            finished_at = None;
        } else if finished_at.get_or_insert_with(Instant::now).elapsed() >= linger {
            return Ok(());
        }
    }
}

/// Reads one request from `stream`, writes its answer, and waits for the
/// peer to hang up. An unreadable request is answered with
/// [`Response::Error`].
fn answer_one(endpoint: &impl Endpoint, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_frame(&mut stream).and_then(|b| Request::from_bytes(&b)) {
        Ok(request) => endpoint.answer(&request),
        Err(e) => Response::Error {
            what: e.to_string(),
        },
    };
    let _ = write_frame(&mut stream, &response.to_bytes());
    // Wait for the peer's close before ours so the TIME_WAIT state lands
    // on the client's ephemeral port, not on our listen port. Otherwise
    // every answered request parks a server-side TIME_WAIT entry that
    // blocks a restarted daemon from rebinding the same address for up
    // to a minute — exactly the window a journaled restart (DESIGN.md
    // §15) needs to reopen. Bounded by the read timeout if the peer
    // lingers.
    let _ = stream.read(&mut [0u8; 1]);
}

/// One request–response exchange with the endpoint at `addr` on a fresh
/// connection, attempted once. Dropping the stream on return is the
/// client-first close [`serve`] waits for.
///
/// # Errors
///
/// Connection, frame I/O and response-decoding errors. A protocol-level
/// refusal ([`Response::Error`], [`Response::Retry`]) is a successful
/// exchange, not an `Err`.
pub fn call(addr: &str, request: &Request) -> fnas::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write_frame(&mut stream, &request.to_bytes())?;
    Response::from_bytes(&read_frame(&mut stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", &[0u8; 4096][..]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            assert_eq!(&buf[..4], &MAGIC);
            let got = read_frame(&mut Cursor::new(&buf)).unwrap();
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"first");
        assert_eq!(read_frame(&mut cur).unwrap(), b"second");
    }

    #[test]
    fn bad_magic_is_rejected_before_any_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf[0] = b'H'; // "HNC1" — an HTTP-ish probe
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    /// A reader that records the largest buffer it is handed.
    struct Widest<R> {
        inner: R,
        widest: usize,
    }

    impl<R: Read> Read for Widest<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn truncated_frames_surface_as_io_errors() {
        let mut cut = Vec::new();
        write_frame(&mut cut, b"payload").unwrap();
        cut.truncate(cut.len() - 3);
        // A bare header declaring the cap: the payload buffer grows with
        // the bytes that arrive, not with the claim.
        let bare = [&MAGIC[..], &MAX_FRAME.to_le_bytes()].concat();
        for bytes in [cut, bare] {
            let mut r = Widest {
                inner: Cursor::new(bytes),
                widest: 0,
            };
            let err = read_frame(&mut r).unwrap_err();
            assert!(matches!(err, FnasError::Io(_)), "{err}");
            assert!(r.widest <= 64 << 10, "handed a {}-byte buffer", r.widest);
        }
    }

    /// Answers every request with the same `Wait`; finished on demand.
    struct Stub(AtomicBool);

    impl Endpoint for Stub {
        fn answer(&self, _: &Request) -> Response {
            Response::Wait { backoff_ms: 7 }
        }
        fn finished(&self) -> bool {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn the_shell_contains_bad_peers_and_lingers_before_returning() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = Arc::new(Stub(AtomicBool::new(false)));
        let linger = Duration::from_millis(150);
        let shell = {
            let stub = Arc::clone(&stub);
            std::thread::spawn(move || serve(&stub, listener, linger))
        };

        // Not FNC1 at all: answered with an error frame, not a hangup.
        let mut probe = TcpStream::connect(&addr).unwrap();
        probe.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let answer = Response::from_bytes(&read_frame(&mut probe).unwrap()).unwrap();
        let bad_magic = matches!(&answer, Response::Error { what } if what.contains("bad magic"));
        assert!(bad_magic, "{answer:?}");
        drop(probe);

        // A peer that hangs up mid-frame costs only its own connection.
        let mut quitter = TcpStream::connect(&addr).unwrap();
        let partial = [&MAGIC[..], &100u32.to_le_bytes(), b"abc"].concat();
        quitter.write_all(&partial).unwrap();
        drop(quitter);

        let answer = call(&addr, &Request::ListJobs).unwrap();
        assert_eq!(answer, Response::Wait { backoff_ms: 7 });

        // Finished for less than the linger, then not: the linger restarts.
        stub.0.store(true, Ordering::SeqCst);
        std::thread::sleep(linger / 3);
        stub.0.store(false, Ordering::SeqCst);
        std::thread::sleep(linger * 2);
        assert!(!shell.is_finished(), "returned without a full linger");

        let since = Instant::now();
        stub.0.store(true, Ordering::SeqCst);
        shell.join().unwrap().unwrap();
        assert!(
            since.elapsed() >= linger,
            "returned after {:?}",
            since.elapsed()
        );
    }
}
