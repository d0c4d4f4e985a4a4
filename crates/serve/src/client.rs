//! A small blocking client for the fork-serve wire protocol.
//!
//! [`ServeClient`] supports two styles: sequential request/response via the
//! typed convenience calls ([`ServeClient::query`], [`ServeClient::stats`],
//! …), and raw pipelining via [`ServeClient::send`] + [`ServeClient::recv`]
//! — the daemon's workers run concurrently, so pipelined responses may
//! arrive out of order and must be matched by correlation id (the load
//! generator does exactly this).

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use fork_query::{Lookup, LookupOutput, Query, QueryOutput};
use fork_telemetry::SeriesRing;

use crate::wire::{
    decode_response, encode_request_into, read_frame, write_frame_with, DecodeError, FrameError,
    Request, RequestBody, Response, ResponseBody, ServeMeta, SlowQueryRecord, WireError,
};

/// Client-side failure talking to a daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error.
    Io(io::Error),
    /// Transport-level frame failure (corrupt, oversized, closed).
    Frame(FrameError),
    /// The frame opened but the payload would not decode.
    Decode(DecodeError),
    /// The server answered with a typed error.
    Server(WireError),
    /// The server answered with the wrong response shape.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o: {e}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Decode(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(d) => write!(f, "unexpected response: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One connection to a `fork-served` daemon.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
    /// Request frame buffer, reused across sends.
    frame: Vec<u8>,
}

impl ServeClient {
    /// Connects immediately.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            next_id: 1,
            frame: Vec::new(),
        })
    }

    /// Connects with retries until `timeout` — lets load generators start
    /// before the daemon finishes opening its archive.
    pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<ServeClient> {
        let deadline = Instant::now() + timeout;
        loop {
            match ServeClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Sends one request without waiting; returns its correlation id.
    pub fn send(&mut self, body: RequestBody) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request { id, body };
        write_frame_with(&mut self.stream, &mut self.frame, |out| {
            encode_request_into(out, &req)
        })?;
        Ok(id)
    }

    /// Receives the next response (pipelined responses arrive in whatever
    /// order the daemon's workers finished).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.stream)?;
        decode_response(&payload).map_err(ClientError::Decode)
    }

    /// Sequential request/response; requires no pipelined requests pending.
    fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let id = self.send(body)?;
        let resp = self.recv()?;
        if resp.id != id {
            return Err(ClientError::Unexpected(format!(
                "response id {} for request {id} (pipelined requests pending?)",
                resp.id
            )));
        }
        match resp.body {
            ResponseBody::Error(e) => Err(ClientError::Server(e)),
            body => Ok(body),
        }
    }

    /// Evaluates `query` on the daemon and returns the decoded output.
    pub fn query(&mut self, query: &Query) -> Result<QueryOutput, ClientError> {
        match self.call(RequestBody::Query(*query))? {
            ResponseBody::Output(out) => Ok(out),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Evaluates a point `lookup` on the daemon and returns the decoded
    /// output (hash/number lookups, tip history, header chains).
    pub fn lookup(&mut self, lookup: &Lookup) -> Result<LookupOutput, ClientError> {
        match self.call(RequestBody::Lookup(*lookup))? {
            ResponseBody::Lookup(out) => Ok(out),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's JSON telemetry snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(RequestBody::Stats)? {
            ResponseBody::Stats(json) => Ok(json),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches archive shape metadata.
    pub fn meta(&mut self) -> Result<ServeMeta, ClientError> {
        match self.call(RequestBody::Meta)? {
            ResponseBody::Meta(meta) => Ok(meta),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's sampled time-series ring (one sample per
    /// configured interval; windowed shed and cache-hit rates).
    pub fn obs_series(&mut self) -> Result<SeriesRing, ClientError> {
        match self.call(RequestBody::ObsSeries)? {
            ResponseBody::ObsSeries(ring) => Ok(ring),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's slow-query log, worst-first, with per-stage
    /// waterfalls.
    pub fn obs_slow_log(&mut self) -> Result<Vec<SlowQueryRecord>, ClientError> {
        match self.call(RequestBody::ObsSlowLog)? {
            ResponseBody::ObsSlowLog(log) => Ok(log),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches a Prometheus text-exposition rendering of the daemon's
    /// full metrics registry.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(RequestBody::Metrics)? {
            ResponseBody::Metrics(text) => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(RequestBody::Shutdown)? {
            ResponseBody::ShutdownAck => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
