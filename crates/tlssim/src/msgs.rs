//! Handshake message encoding/decoding — the subset a passive monitor reads.

use crate::wire::{version_bytes, version_from_bytes, WireError};
use mtls_zeek::TlsVersion;

/// Handshake message types.
pub const HS_CLIENT_HELLO: u8 = 1;
pub const HS_SERVER_HELLO: u8 = 2;
pub const HS_CERTIFICATE: u8 = 11;
pub const HS_CERTIFICATE_REQUEST: u8 = 13;
pub const HS_SERVER_HELLO_DONE: u8 = 14;
pub const HS_FINISHED: u8 = 20;

/// Extension numbers.
pub const EXT_SNI: u16 = 0;
pub const EXT_SUPPORTED_VERSIONS: u16 = 43;

/// Wrap a handshake body in the `msg_type | uint24 length | body` envelope.
pub fn handshake_envelope(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 4);
    out.push(msg_type);
    let len = body.len() as u32;
    out.extend_from_slice(&len.to_be_bytes()[1..]);
    out.extend_from_slice(body);
    out
}

/// Split a handshake envelope into `(msg_type, body)`.
pub fn parse_envelope(data: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if data.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = usize::from(data[1]) << 16 | usize::from(data[2]) << 8 | usize::from(data[3]);
    if data.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    Ok((data[0], &data[4..4 + len]))
}

/// A ClientHello as the monitor sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Highest version offered in the legacy field.
    pub legacy_version: TlsVersion,
    /// SNI host_name, if the extension is present.
    pub sni: Option<String>,
    /// Versions listed in supported_versions (empty when absent).
    pub supported_versions: Vec<TlsVersion>,
}

impl ClientHello {
    /// Encode the body (inside the handshake envelope).
    pub fn encode(&self, random: &[u8; 32]) -> Vec<u8> {
        let mut b = Vec::with_capacity(128);
        b.extend_from_slice(&version_bytes(self.legacy_version.min(TlsVersion::Tls12)));
        b.extend_from_slice(random);
        b.push(0); // session_id length
                   // One plausible cipher suite pair keeps real parsers happy.
        b.extend_from_slice(&2u16.to_be_bytes());
        b.extend_from_slice(&0xC02Fu16.to_be_bytes()); // ECDHE-RSA-AES128-GCM-SHA256
        b.push(1); // compression methods length
        b.push(0); // null compression

        let mut exts = Vec::new();
        if let Some(sni) = &self.sni {
            let name = sni.as_bytes();
            let mut ext = Vec::with_capacity(name.len() + 5);
            ext.extend_from_slice(&((name.len() + 3) as u16).to_be_bytes()); // server_name_list length
            ext.push(0); // name_type host_name
            ext.extend_from_slice(&(name.len() as u16).to_be_bytes());
            ext.extend_from_slice(name);
            put_extension(&mut exts, EXT_SNI, &ext);
        }
        if !self.supported_versions.is_empty() {
            let mut ext = vec![(self.supported_versions.len() * 2) as u8];
            for v in &self.supported_versions {
                ext.extend_from_slice(&version_bytes(*v));
            }
            put_extension(&mut exts, EXT_SUPPORTED_VERSIONS, &ext);
        }
        b.extend_from_slice(&(exts.len() as u16).to_be_bytes());
        b.extend_from_slice(&exts);
        b
    }

    /// Parse a ClientHello body.
    pub fn parse(body: &[u8]) -> Result<ClientHello, WireError> {
        let mut c = Cursor::new(body);
        let legacy = c.take(2)?;
        let legacy_version =
            version_from_bytes([legacy[0], legacy[1]]).ok_or(WireError::BadVersion)?;
        c.skip(32)?; // random
        let sid_len = usize::from(c.u8()?);
        c.skip(sid_len)?;
        let cs_len = usize::from(c.u16()?);
        c.skip(cs_len)?;
        let comp_len = usize::from(c.u8()?);
        c.skip(comp_len)?;

        let mut sni = None;
        let mut supported_versions = Vec::new();
        if !c.done() {
            let ext_total = usize::from(c.u16()?);
            let exts = c.take(ext_total)?;
            let mut e = Cursor::new(exts);
            while !e.done() {
                let ty = e.u16()?;
                let len = usize::from(e.u16()?);
                let data = e.take(len)?;
                match ty {
                    EXT_SNI => {
                        let mut s = Cursor::new(data);
                        let _list_len = s.u16()?;
                        let _name_type = s.u8()?;
                        let nlen = usize::from(s.u16()?);
                        let name = s.take(nlen)?;
                        sni = Some(
                            String::from_utf8(name.to_vec()).map_err(|_| WireError::Malformed)?,
                        );
                    }
                    EXT_SUPPORTED_VERSIONS => {
                        let mut s = Cursor::new(data);
                        let vlen = usize::from(s.u8()?);
                        let list = s.take(vlen)?;
                        for pair in list.chunks_exact(2) {
                            if let Some(v) = version_from_bytes([pair[0], pair[1]]) {
                                supported_versions.push(v);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(ClientHello {
            legacy_version,
            sni,
            supported_versions,
        })
    }
}

/// A ServerHello as the monitor sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The negotiated version: from supported_versions when present (1.3),
    /// else the legacy field.
    pub version: TlsVersion,
}

impl ServerHello {
    /// Encode the body.
    pub fn encode(&self, random: &[u8; 32]) -> Vec<u8> {
        let mut b = Vec::with_capacity(80);
        b.extend_from_slice(&version_bytes(self.version.min(TlsVersion::Tls12)));
        b.extend_from_slice(random);
        b.push(0); // session_id
        b.extend_from_slice(&0xC02Fu16.to_be_bytes());
        b.push(0); // compression
        let mut exts = Vec::new();
        if self.version == TlsVersion::Tls13 {
            put_extension(
                &mut exts,
                EXT_SUPPORTED_VERSIONS,
                &version_bytes(TlsVersion::Tls13),
            );
        }
        b.extend_from_slice(&(exts.len() as u16).to_be_bytes());
        b.extend_from_slice(&exts);
        b
    }

    /// Parse a ServerHello body.
    pub fn parse(body: &[u8]) -> Result<ServerHello, WireError> {
        let mut c = Cursor::new(body);
        let legacy = c.take(2)?;
        let mut version =
            version_from_bytes([legacy[0], legacy[1]]).ok_or(WireError::BadVersion)?;
        c.skip(32)?;
        let sid_len = usize::from(c.u8()?);
        c.skip(sid_len)?;
        c.skip(2)?; // cipher suite
        c.skip(1)?; // compression
        if !c.done() {
            let ext_total = usize::from(c.u16()?);
            let exts = c.take(ext_total)?;
            let mut e = Cursor::new(exts);
            while !e.done() {
                let ty = e.u16()?;
                let len = usize::from(e.u16()?);
                let data = e.take(len)?;
                if ty == EXT_SUPPORTED_VERSIONS && data.len() == 2 {
                    if let Some(v) = version_from_bytes([data[0], data[1]]) {
                        version = v;
                    }
                }
            }
        }
        Ok(ServerHello { version })
    }
}

/// Append one extension: `uint16 type | uint16 length | data`.
fn put_extension(out: &mut Vec<u8>, ty: u16, data: &[u8]) {
    out.extend_from_slice(&ty.to_be_bytes());
    out.extend_from_slice(&(data.len() as u16).to_be_bytes());
    out.extend_from_slice(data);
}

/// Encode a Certificate message body: `uint24 total | (uint24 len | DER)*`.
pub fn encode_certificate_body(chain: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = chain.iter().map(|c| c.len() + 3).sum();
    let mut out = Vec::with_capacity(total + 3);
    out.extend_from_slice(&(total as u32).to_be_bytes()[1..]);
    for cert in chain {
        out.extend_from_slice(&(cert.len() as u32).to_be_bytes()[1..]);
        out.extend_from_slice(cert);
    }
    out
}

/// Parse a Certificate message body into DER blobs.
pub fn parse_certificate_body(body: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut c = Cursor::new(body);
    let total = c.u24()?;
    let list = c.take(total)?;
    let mut l = Cursor::new(list);
    let mut chain = Vec::new();
    while !l.done() {
        let len = l.u24()?;
        chain.push(l.take(len)?.to_vec());
    }
    Ok(chain)
}

/// Minimal CertificateRequest body (certificate_types + empty DN list).
pub fn encode_certificate_request_body() -> Vec<u8> {
    vec![
        1, 1, // one certificate type: rsa_sign
        0, 0, // supported_signature_algorithms length (omitted semantics)
        0, 0, // certificate_authorities length
    ]
}

/// Byte cursor with explicit errors (no panics on malformed input).
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u24(&mut self) -> Result<usize, WireError> {
        let b = self.take(3)?;
        Ok(usize::from(b[0]) << 16 | usize::from(b[1]) << 8 | usize::from(b[2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_round_trip_with_sni() {
        let ch = ClientHello {
            legacy_version: TlsVersion::Tls12,
            sni: Some("www.example.org".into()),
            supported_versions: vec![],
        };
        let body = ch.encode(&[7u8; 32]);
        assert_eq!(ClientHello::parse(&body).unwrap(), ch);
    }

    #[test]
    fn client_hello_round_trip_tls13() {
        let ch = ClientHello {
            legacy_version: TlsVersion::Tls12,
            sni: None,
            supported_versions: vec![TlsVersion::Tls13, TlsVersion::Tls12],
        };
        let body = ch.encode(&[0u8; 32]);
        assert_eq!(ClientHello::parse(&body).unwrap(), ch);
    }

    #[test]
    fn server_hello_negotiates_13_via_extension() {
        let sh = ServerHello {
            version: TlsVersion::Tls13,
        };
        let body = sh.encode(&[1u8; 32]);
        // Legacy field says 1.2; extension upgrades to 1.3.
        assert_eq!(&body[..2], &[3, 3]);
        assert_eq!(
            ServerHello::parse(&body).unwrap().version,
            TlsVersion::Tls13
        );
    }

    #[test]
    fn server_hello_plain_12() {
        let sh = ServerHello {
            version: TlsVersion::Tls12,
        };
        let body = sh.encode(&[1u8; 32]);
        assert_eq!(
            ServerHello::parse(&body).unwrap().version,
            TlsVersion::Tls12
        );
    }

    #[test]
    fn certificate_body_round_trip() {
        let chain = vec![vec![1u8, 2, 3], vec![4u8; 300], vec![]];
        let body = encode_certificate_body(&chain);
        assert_eq!(parse_certificate_body(&body).unwrap(), chain);
    }

    #[test]
    fn empty_certificate_body() {
        let body = encode_certificate_body(&[]);
        assert!(parse_certificate_body(&body).unwrap().is_empty());
    }

    #[test]
    fn envelope_round_trip() {
        let env = handshake_envelope(HS_CERTIFICATE, b"payload");
        let (ty, body) = parse_envelope(&env).unwrap();
        assert_eq!(ty, HS_CERTIFICATE);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn truncated_envelope_rejected() {
        let env = handshake_envelope(HS_FINISHED, b"123456");
        assert_eq!(parse_envelope(&env[..5]), Err(WireError::Truncated));
        assert_eq!(parse_envelope(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn malformed_hellos_do_not_panic() {
        for len in 0..40 {
            let junk = vec![0xAAu8; len];
            let _ = ClientHello::parse(&junk);
            let _ = ServerHello::parse(&junk);
            let _ = parse_certificate_body(&junk);
        }
    }
}
