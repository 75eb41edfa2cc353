//! Public CAs log the server leaves they issue (DESIGN §1).
//!
//! The interception filter's SCT-strip stage flags a public-CA server leaf
//! whose exact host name CT knows under the same issuer but whose
//! fingerprint it has never seen. A generated corpus must therefore log
//! every public-CA server leaf it presents, or a clean corpus fakes
//! strips. This runs the whole `generate` with every gated scenario on,
//! so a scenario added later is covered without naming it here.

use mtls_netsim::scenarios::sct_strip::STRIP_HOST;
use mtls_netsim::{generate, SimConfig};
use std::collections::{BTreeMap, HashMap, HashSet};

#[test]
fn every_public_server_leaf_is_logged_except_the_strip_twin() {
    for seed in [7, 20_240_704] {
        let sim = generate(&SimConfig {
            seed,
            scale: 0.01,
            include_sct_strip: true,
            include_ct_equivocation: true,
            include_malformed: true,
            ..SimConfig::default()
        });
        let public: HashSet<&str> = sim.meta.public_ca_orgs.iter().map(String::as_str).collect();
        let logged: HashSet<&str> = sim
            .ct
            .entries()
            .iter()
            .map(|e| e.fingerprint.as_str())
            .collect();
        let certs: HashMap<&str, _> = sim
            .x509
            .iter()
            .map(|c| (c.fingerprint.as_str(), c))
            .collect();

        // Unlogged public-CA server leaves, by fingerprint.
        let unlogged: BTreeMap<&str, &str> = sim
            .ssl
            .iter()
            .filter_map(|r| r.cert_chain_fps.first())
            .filter_map(|fp| certs.get(fp.as_str()))
            .filter(|c| c.issuer_org.as_deref().is_some_and(|o| public.contains(o)))
            .filter(|c| !logged.contains(c.fingerprint.as_str()))
            .map(|c| {
                let cn = c.subject_cn.as_deref().unwrap_or("");
                (c.fingerprint.as_str(), cn)
            })
            .collect();
        assert_eq!(
            unlogged.into_values().collect::<Vec<_>>(),
            [STRIP_HOST],
            "seed {seed}: unlogged public-CA server leaves"
        );
    }
}
