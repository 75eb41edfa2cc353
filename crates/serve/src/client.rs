//! Blocking client for the serve protocol: one mTLS session per TCP
//! connection, kept alive across requests.

use crate::frame::{
    frame_header, Frame, MAX_FRAME_PAYLOAD, REQ_DER, REQ_METRICS, REQ_PING, REQ_SHARD,
    RESP_METRICS, RESP_PONG, RESP_VERDICT,
};
use crate::tls::{self, EndpointConfig, Session, SessionError};
use mtls_tlssim::StreamError;
use std::io;
use std::net::TcpStream;

/// What a request came back as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The rendered verdict text.
    Verdict(String),
    /// Liveness ack.
    Pong,
    /// The server refused the request for this cycle.
    Throttled,
    /// A request-level error message from the server.
    Error(String),
    /// The metrics snapshot JSON (ops-class tenants only).
    Metrics(String),
}

/// One established connection to the server.
pub struct ClientSession {
    session: Session<TcpStream, TcpStream>,
}

impl ClientSession {
    /// Connect and run the mutual-TLS handshake, presenting `cfg.chain`.
    pub fn connect(
        addr: &str,
        cfg: &EndpointConfig,
        sni: Option<&str>,
    ) -> io::Result<ClientSession> {
        ClientSession::connect_tls(addr, cfg, sni)
            .map_err(|e| io::Error::new(io::ErrorKind::ConnectionRefused, e.to_string()))
    }

    /// Like [`ClientSession::connect`] but preserving the
    /// [`SessionError`] cause of a failed handshake.
    pub fn connect_tls(
        addr: &str,
        cfg: &EndpointConfig,
        sni: Option<&str>,
    ) -> Result<ClientSession, SessionError> {
        let stream = TcpStream::connect(addr).map_err(|e| SessionError::Stream(e.into()))?;
        let _ = stream.set_nodelay(true);
        let read = stream
            .try_clone()
            .map_err(|e| SessionError::Stream(e.into()))?;
        let session = tls::connect(read, stream, cfg, sni)?;
        Ok(ClientSession { session })
    }

    fn round_trip(&mut self, kind: u8, payload: &[u8]) -> Result<Response, SessionError> {
        self.session.send_frame(kind, payload)?;
        let frame = self
            .session
            .recv_frame()?
            .ok_or(SessionError::Stream(StreamError::UnexpectedEof))?;
        Ok(decode_response(frame))
    }

    /// Submit one DER certificate blob for a verdict.
    pub fn request_der(&mut self, der: &[u8]) -> Result<Response, SessionError> {
        self.round_trip(REQ_DER, der)
    }

    /// Submit one Zeek x509 shard (TSV bytes) for a verdict.
    pub fn request_shard(&mut self, tsv: &[u8]) -> Result<Response, SessionError> {
        self.round_trip(REQ_SHARD, tsv)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response, SessionError> {
        self.round_trip(REQ_PING, &[])
    }

    /// Fetch the live metrics + flight-recorder snapshot (the admin
    /// frame; the server answers only ops-class tenants).
    pub fn request_metrics(&mut self) -> Result<Response, SessionError> {
        self.round_trip(REQ_METRICS, &[])
    }

    /// Round-trip an arbitrary frame kind — the probe path the planted
    /// failure scenarios use to exercise `serve.request.err.unknown_kind`.
    pub fn request_raw(&mut self, kind: u8, payload: &[u8]) -> Result<Response, SessionError> {
        self.round_trip(kind, payload)
    }

    /// Send a frame header whose length field exceeds
    /// [`MAX_FRAME_PAYLOAD`] without the body — the cheapest way to
    /// plant an oversize-frame violation. The server must reject it at
    /// the header (and close) without ever taking a quota token.
    pub fn send_oversize_header(&mut self) -> Result<(), SessionError> {
        self.session
            .send_raw(&frame_header(REQ_DER, MAX_FRAME_PAYLOAD + 1))
    }

    /// Whether the server closed the connection (next read is EOF or an
    /// error). Consumes the stream position, so only call when no
    /// response is expected.
    pub fn expect_close(&mut self) -> bool {
        !matches!(self.session.recv_frame(), Ok(Some(_)))
    }
}

fn decode_response(frame: Frame) -> Response {
    match frame.kind {
        RESP_VERDICT => Response::Verdict(text(frame.payload)),
        RESP_PONG => Response::Pong,
        crate::frame::RESP_THROTTLED => Response::Throttled,
        RESP_METRICS => Response::Metrics(text(frame.payload)),
        _ => Response::Error(text(frame.payload)),
    }
}

/// A response payload as text: valid UTF-8 (every verdict the server
/// renders) is validated in one pass and kept without a copy; anything
/// else is decoded lossily.
fn text(payload: Vec<u8>) -> String {
    String::from_utf8(payload)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_text_equals_the_lossy_decode() {
        for payload in [
            &b""[..],
            b"verdict: cert\nparse: ok\n",
            "privacy.cn: Jos\u{e9} => PersonalName\n".as_bytes(),
            b"bad \xFF\xFE bytes and a cut \xE2\x82",
        ] {
            assert_eq!(
                text(payload.to_vec()),
                String::from_utf8_lossy(payload).into_owned()
            );
        }
    }
}
