//! IPv4 addresses and the /24-subnet arithmetic the analysis uses.
//!
//! The paper counts distinct client IPs and measures certificate spread
//! across /24 subnets (Table 6). A tiny dedicated type keeps those
//! operations allocation-free.

/// An IPv4 address as a big-endian u32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// From dotted-quad octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Parse dotted-quad text: exactly four decimal octets of one to three
    /// digits, each at most 255, in one pass over the bytes. Leading-zero
    /// octets (`010.0.0.1`) are rejected: `inet_aton`-style parsers read
    /// them as octal, so accepting them decimally would silently disagree
    /// about which address was seen.
    pub fn parse(s: &str) -> Option<Ipv4> {
        let mut bytes = s.bytes();
        let mut addr = 0u32;
        for last in [false, false, false, true] {
            let mut octet = 0u32;
            let mut digits = 0;
            loop {
                match bytes.next() {
                    // A fourth digit, or a digit after a leading zero.
                    Some(b) if b.is_ascii_digit() => {
                        if digits == 3 || (digits == 1 && octet == 0) {
                            return None;
                        }
                        octet = octet * 10 + u32::from(b - b'0');
                        digits += 1;
                    }
                    Some(b'.') if !last && digits > 0 => break,
                    None if last && digits > 0 => break,
                    _ => return None,
                }
            }
            if octet > 255 {
                return None;
            }
            addr = addr << 8 | octet;
        }
        Some(Ipv4(addr))
    }

    /// The four octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The enclosing /24 network (host byte zeroed).
    pub fn subnet24(self) -> Ipv4 {
        Ipv4(self.0 & 0xFFFF_FF00)
    }

    /// Whether the address lies inside `network/prefix_len`.
    pub fn in_subnet(self, network: Ipv4, prefix_len: u8) -> bool {
        debug_assert!(prefix_len <= 32);
        if prefix_len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(prefix_len));
        (self.0 & mask) == (network.0 & mask)
    }

    /// Address at `offset` hosts above this one (wrapping).
    pub fn offset(self, n: u32) -> Ipv4 {
        Ipv4(self.0.wrapping_add(n))
    }
}

impl std::fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"] {
            let ip = Ipv4::parse(s).unwrap();
            assert_eq!(ip.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "a.b.c.d",
            "1..2.3",
            "01x.2.3.4",
            // Leading zeros read as octal by inet_aton — reject, except a
            // bare "0" octet.
            "010.0.0.1",
            "00.0.0.0",
            "1.02.3.4",
            "1.2.3.004",
        ] {
            assert!(Ipv4::parse(s).is_none(), "{s}");
        }
        assert_eq!(Ipv4::parse("0.0.0.0"), Some(Ipv4::new(0, 0, 0, 0)));
        assert_eq!(Ipv4::parse("10.0.0.1"), Some(Ipv4::new(10, 0, 0, 1)));
    }

    #[test]
    fn subnet24() {
        let ip = Ipv4::new(10, 20, 30, 40);
        assert_eq!(ip.subnet24(), Ipv4::new(10, 20, 30, 0));
        assert_eq!(ip.subnet24().to_string(), "10.20.30.0");
    }

    #[test]
    fn in_subnet() {
        let net = Ipv4::new(172, 16, 0, 0);
        assert!(Ipv4::new(172, 16, 5, 9).in_subnet(net, 16));
        assert!(!Ipv4::new(172, 17, 0, 1).in_subnet(net, 16));
        assert!(Ipv4::new(1, 2, 3, 4).in_subnet(Ipv4::new(9, 9, 9, 9), 0));
        assert!(Ipv4::new(10, 0, 0, 7).in_subnet(Ipv4::new(10, 0, 0, 7), 32));
        assert!(!Ipv4::new(10, 0, 0, 8).in_subnet(Ipv4::new(10, 0, 0, 7), 32));
    }

    #[test]
    fn offset_wraps() {
        assert_eq!(Ipv4::new(10, 0, 0, 250).offset(10), Ipv4::new(10, 0, 1, 4));
        assert_eq!(Ipv4(u32::MAX).offset(1), Ipv4(0));
    }
}
