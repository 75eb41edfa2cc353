//! Pins the bytes of the generated Zeek logs.
//!
//! Every scenario draws from one seeded RNG stream, so a refactor that
//! adds, drops or reorders a single draw shifts every record after it.
//! These constants hash `write_ssl_log` and `write_x509_log` for the
//! seed-7 corpus at scale 0.02 (the corpus `report_pin` renders), once
//! with the default flags and once with the SCT-strip scenario on. A
//! change to a constant is a change to the corpus, and must be
//! deliberate.

use mtls_crypto::{hex, sha256};
use mtls_netsim::{generate, SimConfig};
use mtls_zeek::{write_ssl_log, write_x509_log};

/// (ssl.log, x509.log) sha256 with the default flags.
const DEFAULT: (&str, &str) = (
    "682e7386161b6a36e3c9040e0e894a7d37a86d433c5b27f8da9322af384deb60",
    "4033c8881436cefe00a3afb0e133182fba3f4d653b957940c7e67533d88f4532",
);

/// (ssl.log, x509.log) sha256 with `include_sct_strip`.
const SCT_STRIP: (&str, &str) = (
    "bf34ade3f055237d137b682e4c34de26ca9b2b6a949c89953f22d877507229ee",
    "554cc54918c7ee784718b7f08c50e0754efc494dbee367ef14f3d45f04e1e732",
);

fn log_hashes(include_sct_strip: bool) -> (String, String) {
    let sim = generate(&SimConfig {
        seed: 7,
        scale: 0.02,
        include_sct_strip,
        ..SimConfig::default()
    });
    let mut ssl = Vec::new();
    write_ssl_log(&mut ssl, &sim.ssl).unwrap();
    let mut x509 = Vec::new();
    write_x509_log(&mut x509, &sim.x509).unwrap();
    (hex::encode(&sha256(&ssl)), hex::encode(&sha256(&x509)))
}

#[test]
fn default_log_bytes_are_pinned() {
    let (ssl, x509) = log_hashes(false);
    assert_eq!((ssl.as_str(), x509.as_str()), DEFAULT);
}

#[test]
fn sct_strip_log_bytes_are_pinned() {
    let (ssl, x509) = log_hashes(true);
    assert_eq!((ssl.as_str(), x509.as_str()), SCT_STRIP);
}
