//! Socket transport: a local TCP listener in front of the [`Aggregator`],
//! and the matching client.
//!
//! Each connection gets its own OS thread and its own [`ConnCtx`] binding
//! table.  Messages are processed strictly in arrival order per
//! connection, which is what makes [`AggdClient::flush`] an ordering
//! barrier: once the flush acks, every frame written before it has been
//! applied.  Both ends buffer: the client collects fire-and-forget frames
//! and writes them out in one `write` before any call that waits for a
//! reply, and the daemon reads through an 8 KiB buffer, so a batch of
//! frames costs one system call at each end rather than one or two per
//! frame.  Receive buffers are reused across messages, so the
//! steady-state per-frame server cost is a copy out of the read buffer
//! and one aggregator apply — no allocation.

use crate::aggregator::{Aggregator, ConnCtx};
use crate::proto::{self, FrameBuf};
use papi_obs::Counter;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running daemon: aggregator core + listener + connection threads.
pub struct AggdServer {
    agg: Arc<Aggregator>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl AggdServer {
    /// Bind and start serving.  Use `"127.0.0.1:0"` for an ephemeral port
    /// (read it back with [`AggdServer::local_addr`]).
    pub fn bind(addr: &str, agg: Aggregator) -> io::Result<AggdServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let agg = Arc::new(agg);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let agg = Arc::clone(&agg);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let agg = Arc::clone(&agg);
                    let stop = Arc::clone(&stop);
                    let h = std::thread::spawn(move || serve_conn(stream, &agg, &stop));
                    let mut conns = conns.lock().unwrap();
                    reap_finished(&mut conns);
                    conns.push(h);
                }
            })
        };
        Ok(AggdServer {
            agg,
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The aggregator behind the socket (for in-process inspection).
    pub fn aggregator(&self) -> &Arc<Aggregator> {
        &self.agg
    }

    /// Stop accepting, drain connection threads, and shut down.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for AggdServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Join the connection threads that have returned, so the handle list
/// holds live connections rather than every connection ever accepted.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

enum ReadStatus {
    /// Buffer filled completely.
    Done,
    /// Connection closed (or stop requested, or hard error): end the
    /// connection.
    Closed,
}

/// Fill `buf` completely, preserving partial progress across read
/// timeouts (timeouts exist only to poll the stop flag — a mid-message
/// timeout must never discard already-consumed bytes, or the stream
/// mis-frames).
fn read_full(stream: &mut impl Read, buf: &mut [u8], stop: &AtomicBool) -> ReadStatus {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadStatus::Closed,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return ReadStatus::Closed;
                }
            }
            Err(_) => return ReadStatus::Closed,
        }
    }
    ReadStatus::Done
}

fn serve_conn(stream: TcpStream, agg: &Aggregator, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut stream = BufReader::new(stream);
    let mut ctx = ConnCtx::new();
    let mut payload: Vec<u8> = Vec::with_capacity(4096);
    let mut resp: Vec<u8> = Vec::with_capacity(4096);
    let mut header = [0u8; 4];
    loop {
        if let ReadStatus::Closed = read_full(&mut stream, &mut header, stop) {
            break;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > proto::MAX_FRAME {
            // No well-formed peer sends this; the rest of the stream cannot
            // be framed, so close rather than read (or allocate) `len`.
            agg.obs().inc(Counter::AggdOversizeFrames);
            break;
        }
        payload.clear();
        payload.resize(len, 0);
        if let ReadStatus::Closed = read_full(&mut stream, &mut payload, stop) {
            break;
        }
        let op = payload.first().copied().unwrap_or(0);
        if op >= 16 {
            resp.clear();
            resp.extend_from_slice(&[0, 0, 0, 0]);
            agg.serve_query(&payload, &mut resp);
            let len = (resp.len() - 4) as u32;
            resp[..4].copy_from_slice(&len.to_le_bytes());
            if stream.get_mut().write_all(&resp).is_err() {
                break;
            }
        } else {
            // A payload that does not decode is counted by `ingest`
            // (aggd.malformed_frames) and skipped; its length prefix kept
            // the stream framed.
            let _ = agg.ingest(&mut ctx, &payload);
            if op == proto::OP_FLUSH {
                resp.clear();
                resp.extend_from_slice(&1u32.to_le_bytes());
                resp.push(proto::STATUS_OK);
                if stream.get_mut().write_all(&resp).is_err() {
                    break;
                }
            }
        }
    }
}

fn bad_response() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "bad response")
}

/// Client side of the wire protocol: encodes with a reusable [`FrameBuf`]
/// and reads length-prefixed responses.
///
/// Fire-and-forget frames (everything but [`AggdClient::flush`], the
/// queries, [`AggdClient::scrape`] and the stats calls) collect in a
/// write buffer.  The buffer goes out before every call that waits for a
/// reply, and on drop; a write error on drop is lost, so call
/// [`AggdClient::flush`] to see one.
pub struct AggdClient {
    stream: BufWriter<TcpStream>,
    fb: FrameBuf,
    resp: Vec<u8>,
}

impl AggdClient {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<AggdClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(AggdClient {
            stream: BufWriter::new(stream),
            fb: FrameBuf::new(),
            resp: Vec::new(),
        })
    }

    /// Bind a connection-local tenant id.
    pub fn bind_tenant(&mut self, tid: u16, name: &str) -> io::Result<()> {
        self.stream.write_all(self.fb.bind_tenant(tid, name))
    }

    /// Bind a connection-local series id under a tenant.
    pub fn reg_series(&mut self, tid: u16, sid: u16, name: &str) -> io::Result<()> {
        self.stream.write_all(self.fb.reg_series(tid, sid, name))
    }

    /// Send one counter-delta frame (fire-and-forget).
    pub fn snapshot(
        &mut self,
        tid: u16,
        source: u64,
        seq: u64,
        cycles: u64,
        deltas: &[(u16, u64)],
    ) -> io::Result<()> {
        self.stream
            .write_all(self.fb.snapshot(tid, source, seq, cycles, deltas))
    }

    /// Send one pre-encoded message verbatim (duplication/replay testing).
    pub fn send_raw(&mut self, msg: &[u8]) -> io::Result<()> {
        self.stream.write_all(msg)
    }

    /// Encode a snapshot frame without sending it (for later
    /// [`AggdClient::send_raw`], e.g. to inject duplicates).
    pub fn encode_snapshot(
        &mut self,
        tid: u16,
        source: u64,
        seq: u64,
        cycles: u64,
        deltas: &[(u16, u64)],
    ) -> Vec<u8> {
        self.fb.snapshot(tid, source, seq, cycles, deltas).to_vec()
    }

    /// Send one histogram frame (fire-and-forget).
    pub fn hist(
        &mut self,
        tid: u16,
        sid: u16,
        source: u64,
        seq: u64,
        cycles: u64,
        buckets: &[(u16, u64)],
    ) -> io::Result<()> {
        self.stream
            .write_all(self.fb.hist(tid, sid, source, seq, cycles, buckets))
    }

    /// Declare a source stream finished.
    pub fn close_source(
        &mut self,
        tid: u16,
        source: u64,
        frames_sent: u64,
        complete: bool,
    ) -> io::Result<()> {
        self.stream
            .write_all(self.fb.close_source(tid, source, frames_sent, complete))
    }

    /// Write out the buffered frames, then read one length-prefixed
    /// response.  The response buffer grows only as bytes arrive, so a
    /// bogus length prefix costs at most what the daemon actually sends.
    fn request(&mut self) -> io::Result<&[u8]> {
        self.stream.flush()?;
        let stream = self.stream.get_mut();
        let mut header = [0u8; 4];
        stream.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header) as u64;
        self.resp.clear();
        stream.take(len).read_to_end(&mut self.resp)?;
        if self.resp.len() as u64 != len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response",
            ));
        }
        Ok(&self.resp)
    }

    /// Barrier: writes out the buffered frames and returns once every
    /// frame sent before it is applied.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(self.fb.flush())?;
        let resp = self.request()?;
        if resp.first() == Some(&proto::STATUS_OK) {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::InvalidData, "flush failed"))
        }
    }

    /// Lifetime/windowed totals plus live windows for one series.
    pub fn query_series(
        &mut self,
        tenant: &str,
        series: &str,
    ) -> io::Result<Option<crate::SeriesSum>> {
        self.stream
            .write_all(self.fb.query(proto::OP_QUERY_SERIES, tenant, series))?;
        let resp = self.request()?;
        match resp.first() {
            Some(&proto::STATUS_OK) => {
                let n = match resp.get(17..21) {
                    Some(b) => u32::from_le_bytes(b.try_into().expect("4-byte slice")) as usize,
                    None => return Err(bad_response()),
                };
                if resp.len() < 21 + n.saturating_mul(16) {
                    return Err(bad_response());
                }
                let u64at =
                    |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                let lifetime = u64at(resp, 1);
                let windowed = u64at(resp, 9);
                let mut windows = Vec::with_capacity(n);
                for i in 0..n {
                    windows.push((u64at(resp, 21 + i * 16), u64at(resp, 29 + i * 16)));
                }
                Ok(Some(crate::SeriesSum {
                    lifetime,
                    windowed,
                    windows,
                }))
            }
            Some(&proto::STATUS_NOT_FOUND) => Ok(None),
            _ => Err(bad_response()),
        }
    }

    /// Latency quantiles for one series.
    pub fn query_quantiles(
        &mut self,
        tenant: &str,
        series: &str,
    ) -> io::Result<Option<crate::SeriesQuantiles>> {
        self.stream
            .write_all(self.fb.query(proto::OP_QUERY_QUANTILES, tenant, series))?;
        let resp = self.request()?;
        match resp.first() {
            Some(&proto::STATUS_OK) if resp.len() >= 49 => {
                let u64at =
                    |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                Ok(Some(crate::SeriesQuantiles {
                    count: u64at(resp, 1),
                    sum: u64at(resp, 9),
                    max: u64at(resp, 17),
                    p50: u64at(resp, 25),
                    p95: u64at(resp, 33),
                    p99: u64at(resp, 41),
                }))
            }
            Some(&proto::STATUS_NOT_FOUND) => Ok(None),
            _ => Err(bad_response()),
        }
    }

    fn text_request(&mut self, op: u8) -> io::Result<String> {
        self.stream.write_all(self.fb.bare(op))?;
        let resp = self.request()?;
        if resp.first() != Some(&proto::STATUS_OK) {
            return Err(bad_response());
        }
        String::from_utf8(resp[1..].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 response"))
    }

    /// Full Prometheus scrape.
    pub fn scrape(&mut self) -> io::Result<String> {
        self.text_request(proto::OP_SCRAPE)
    }

    /// Daemon self-metrics as flat JSON.
    pub fn stats_json(&mut self) -> io::Result<String> {
        self.text_request(proto::OP_STATS)
    }

    /// Daemon self-metrics, parsed.
    pub fn stats(&mut self) -> io::Result<crate::AggdStats> {
        papi_obs::json::from_str(&self.stats_json()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::AggdConfig;
    use papi_obs::export::exposition;

    #[test]
    fn end_to_end_over_the_socket() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).expect("bind");
        let addr = server.local_addr();
        let mut c = AggdClient::connect(addr).expect("connect");
        c.bind_tenant(0, "web").unwrap();
        c.reg_series(0, 0, "papi.tot_ins").unwrap();
        c.reg_series(0, 1, "papi.fp_ops").unwrap();
        for seq in 0..10u64 {
            c.snapshot(0, 1, seq, seq * 1_000, &[(0, 10), (1, 2)])
                .unwrap();
        }
        // A duplicate of the last frame: dropped exactly once.
        c.snapshot(0, 1, 9, 9_000, &[(0, 10), (1, 2)]).unwrap();
        c.hist(0, 0, 1, 10, 9_000, &[(8, 4)]).unwrap();
        c.close_source(0, 1, 11, true).unwrap();
        c.flush().unwrap();

        let sum = c.query_series("web", "papi.tot_ins").unwrap().unwrap();
        assert_eq!(sum.lifetime, 100);
        assert_eq!(sum.windowed, 100);
        assert!(!sum.windows.is_empty());
        let q = c.query_quantiles("web", "papi.tot_ins").unwrap().unwrap();
        assert_eq!(q.count, 4);
        assert!(c.query_series("web", "absent").unwrap().is_none());

        let text = c.scrape().unwrap();
        exposition::validate(&text).unwrap_or_else(|e| panic!("invalid scrape: {e}"));
        let stats = c.stats().unwrap();
        assert_eq!(stats.frames_in, 12);
        assert_eq!(stats.dup_dropped, 1);
        assert_eq!(stats.sources_closed, 1);
        server.shutdown();
    }

    #[test]
    fn two_connections_share_tenant_state() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).expect("bind");
        let addr = server.local_addr();
        let mut a = AggdClient::connect(addr).unwrap();
        let mut b = AggdClient::connect(addr).unwrap();
        // Different connection-local ids, same tenant/series names.
        a.bind_tenant(5, "t").unwrap();
        a.reg_series(5, 9, "s").unwrap();
        b.bind_tenant(0, "t").unwrap();
        b.reg_series(0, 0, "s").unwrap();
        a.snapshot(5, 100, 0, 10, &[(9, 7)]).unwrap();
        b.snapshot(0, 200, 0, 10, &[(0, 5)]).unwrap();
        a.flush().unwrap();
        b.flush().unwrap();
        let sum = a.query_series("t", "s").unwrap().unwrap();
        assert_eq!(sum.lifetime, 12);
        server.shutdown();
    }

    /// Frames still in the write buffer when a client is dropped are
    /// written out by the drop, and the daemon applies them.
    #[test]
    fn dropping_a_client_sends_its_buffered_frames() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).expect("bind");
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        c.bind_tenant(0, "t").unwrap();
        c.reg_series(0, 0, "s").unwrap();
        for seq in 0..10u64 {
            c.snapshot(0, 1, seq, seq * 100, &[(0, 3)]).unwrap();
        }
        drop(c);
        let mut q = AggdClient::connect(server.local_addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while q.stats().unwrap().frames_in < 10 {
            assert!(
                std::time::Instant::now() < deadline,
                "buffered frames never arrived"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.query_series("t", "s").unwrap().unwrap().lifetime, 30);
        server.shutdown();
    }

    /// Connection threads that have returned are joined on the next
    /// accept, so the handle list stays at the live connections.
    #[test]
    fn finished_connection_threads_are_reaped() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).expect("bind");
        for _ in 0..1_000 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        let held = server.conns.lock().unwrap().len();
        assert!(held < 100, "{held} connection handles held");
        server.shutdown();
    }

    /// A lying daemon: a 4 GiB length prefix followed by three bytes, and
    /// `STATUS_OK` responses cut short.  The client returns errors; it
    /// neither allocates the claimed length nor indexes past the bytes.
    #[test]
    fn client_refuses_hostile_responses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responses: Vec<Vec<u8>> = vec![
            vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2],
            vec![1, 0, 0, 0, proto::STATUS_OK],
            vec![9, 0, 0, 0, proto::STATUS_OK, 1, 0, 0, 0, 0, 0, 0, 0],
        ];
        let daemon = std::thread::spawn(move || {
            for resp in responses {
                let (mut s, _) = listener.accept().unwrap();
                // The whole query for ("t", "s"), so closing sends a FIN.
                let mut req = [0u8; 11];
                s.read_exact(&mut req).unwrap();
                s.write_all(&resp).unwrap();
            }
        });
        let mut c = AggdClient::connect(addr).unwrap();
        assert!(c.query_series("t", "s").is_err());
        let mut c = AggdClient::connect(addr).unwrap();
        assert!(c.query_series("t", "s").is_err());
        let mut c = AggdClient::connect(addr).unwrap();
        assert!(c.query_quantiles("t", "s").is_err());
        daemon.join().unwrap();
    }
}
