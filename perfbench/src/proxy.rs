//! A frame-counting relay between one client connection and the server.
//!
//! Count passes route their connection through it, so the bytes and
//! frames the protocol puts on the wire are counted outside the program
//! and exactly. The HELLO exchange that opens the connection is not
//! counted: the totals are the requests' own. Timed phases never use it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use transmark::serve::protocol::{read_frame, write_frame, OP_STREAM_DATA};

/// Wire totals of one relayed connection, both directions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireCounts {
    pub bytes: u64,
    pub data_frames: u64,
}

#[derive(Default)]
struct Tally {
    bytes: AtomicU64,
    data_frames: AtomicU64,
}

/// Counts bytes read through it.
struct Counted<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// A relay for exactly one connection.
pub struct Relay {
    addr: SocketAddr,
    tally: Arc<Tally>,
    accept: Option<JoinHandle<std::io::Result<[JoinHandle<()>; 2]>>>,
}

impl Relay {
    /// Listens on an ephemeral loopback port; the first connection is
    /// relayed to `server`.
    pub fn start(server: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tally = Arc::new(Tally::default());
        let t = Arc::clone(&tally);
        let accept = std::thread::spawn(move || {
            let (client, _) = listener.accept()?;
            let upstream = TcpStream::connect(server)?;
            client.set_nodelay(true)?;
            upstream.set_nodelay(true)?;
            let up = pump(client.try_clone()?, upstream.try_clone()?, Arc::clone(&t));
            let down = pump(upstream, client, t);
            Ok([up, down])
        });
        Ok(Relay {
            addr,
            tally,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Waits until both directions have closed (the client must have
    /// disconnected first) and returns the totals.
    pub fn finish(mut self) -> std::io::Result<WireCounts> {
        let pumps = self
            .accept
            .take()
            .expect("finish runs once")
            .join()
            .expect("relay accept thread does not panic")?;
        for p in pumps {
            p.join().expect("relay pump does not panic");
        }
        Ok(WireCounts {
            bytes: self.tally.bytes.load(Ordering::Relaxed),
            data_frames: self.tally.data_frames.load(Ordering::Relaxed),
        })
    }
}

/// Forwards whole frames from `from` to `to` until `from` closes, then
/// closes the write half of `to` so the peer sees the end.
fn pump(from: TcpStream, mut to: TcpStream, tally: Arc<Tally>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = Counted {
            inner: std::io::BufReader::new(from),
            bytes: 0,
        };
        let mut hello_bytes = None;
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            hello_bytes.get_or_insert(reader.bytes);
            if frame.op == OP_STREAM_DATA {
                tally.data_frames.fetch_add(1, Ordering::Relaxed);
            }
            if write_frame(&mut to, frame.op, &frame.payload).is_err() {
                break;
            }
        }
        tally
            .bytes
            .fetch_add(reader.bytes - hello_bytes.unwrap_or(0), Ordering::Relaxed);
        let _ = to.flush();
        let _ = to.shutdown(Shutdown::Write);
    })
}
