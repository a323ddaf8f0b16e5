//! Deterministic run fingerprints and the values pinned for the default
//! seed.
//!
//! A run's fingerprint hashes what the simulation produced — its event
//! count, every flow's delivered bytes and packets, and every station's
//! MAC and PHY counters — and nothing about how long it took. A change
//! that only makes the program faster leaves every fingerprint equal.

use dot11_adhoc::hash::StableHasher;
use dot11_adhoc::RunReport;

/// The seed whose fingerprints are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// The fingerprint of one run.
pub fn run(report: &RunReport) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(report.events);
    for f in &report.flows {
        h.write_u32(f.flow.0);
        h.write_u64(f.offered_packets);
        h.write_u64(f.delivered_bytes);
        h.write_u64(f.delivered_packets);
    }
    for n in &report.nodes {
        let m = &n.mac;
        for v in [
            m.data_tx,
            m.rts_tx,
            m.cts_tx,
            m.ack_tx,
            m.delivered,
            m.duplicates,
            m.tx_success,
            m.tx_dropped,
            m.queue_drops,
            m.retries,
            m.eifs_defers,
            m.nav_updates,
            m.cts_suppressed,
        ] {
            h.write_u64(v);
        }
        let p = &n.phy;
        for v in [
            p.locks,
            p.decoded,
            p.body_errors,
            p.header_errors,
            p.captures,
            p.missed_preambles,
            p.tx_frames,
        ] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// The hash of a sweep's `deterministic_json`.
pub fn text(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// Per-world fingerprints of one pass at [`DEFAULT_SEED`], in pass order.
pub fn pinned(workload: &str) -> &'static [u64] {
    match workload {
        "paper4" => PAPER4,
        "hotspot4096" => HOTSPOT4096,
        "roam4096" => ROAM4096,
        _ => &[],
    }
}

/// Hash of the paper4 sweep's `deterministic_json` at [`DEFAULT_SEED`].
pub const PAPER4_SWEEP: u64 = 0x351fd196663437f5;

const PAPER4: &[u64] = &[
    0x591330b50907ed69,
    0x1badbe928a56a657,
    0x90cff60bb012d1e3,
    0xcb0a7edbde3299a8,
    0xb99d32e468fd87f8,
    0x94d23b643957e384,
    0xbd6674da05f909df,
    0xaf6f20e98350a1a6,
    0x128e8dc1d9dfe211,
    0xe58156833f77dc24,
    0xb8a7f36f62146cda,
    0x82e9d66dd3f81ec4,
    0x2fd41afe1792d372,
    0x9c4f025d142b051e,
    0x69c7e8e2ddfe0e51,
    0xd2f8dbfb52bdd79f,
    0x0b0bcac2c612be1b,
    0x664ddfd11e0a8648,
    0xd57874d1e1b55529,
    0x3e795375d35df2bd,
    0xf260066e9bdc3fb5,
    0xd63dec8539e7dcb5,
    0x8ad5b220c8df53d2,
    0xd5746a27552d4f36,
    0x8e92e62280543cbe,
    0x12ea1bb8f6b29d72,
    0xe1b24b378c37111e,
    0x281d2fb89bf5a3ac,
    0x34e200e965a2d0a4,
    0xcdfb64dd874e3d81,
    0x1f093078aeedd4d4,
    0x8ed8f9baa6cdc559,
    0xd0211548a97c29f2,
    0x4561fe0585123e70,
    0x8a4df91a3ff99720,
    0xd38b73d849e1399b,
    0xa498fae6a4eb0ecf,
    0x774aa5f7ff296a41,
    0x6d50b8fd918a071c,
    0x44b19adb4482401c,
    0xbfd61f90e6669d86,
    0x5a16a0fa3d48f974,
    0x278351e5aac30c65,
    0xf9d3ade4f630b003,
    0xeff1d88b02aa0f2a,
    0xfa1932c8b75231bc,
    0xccbe51f5d8def946,
    0x1ab23254bb9bf3b3,
    0xed2cc47345e62d1a,
    0xa5ef38dee484234d,
    0x90c643f7ad1a108b,
    0xca79a016295599ce,
    0x7d495e5fc1a281ef,
    0x921a80031ff87bd1,
    0x84865a739ac8e5e0,
    0x958b2fc1d158a317,
    0x7b98f7cb92a7188e,
    0x08bed2832448b30c,
    0xcc408fca5814a3b9,
    0x91d8a5597aa7420c,
    0xf8935ef6f7f5541d,
    0x8f880bbc310dca00,
    0x9657518bb68c3d80,
    0x5357d5da4b1c2878,
    0x16624b2651dc01fd,
    0x99f54bab40bfe5a5,
    0x2043bf9d1264d680,
    0xf9724edee59f0026,
    0x10828a68355aba70,
    0x2f84547d0cdd2f71,
    0xeec638c296cdae3f,
    0x2c1eaccd98011dba,
    0x4a975abfaf3e3154,
    0xaf1424af42b07676,
    0x7066a388ef94ba7b,
    0x41bb683d35f125eb,
    0x15ddcc1706a4c674,
    0x58996f6b2eeb4244,
    0xb65550c9edcf9d65,
    0x209008f0ac9c52c2,
    0x63d3e8df1f1d90c0,
    0xaae84704b40afab1,
    0x033400d164c7c5ec,
    0x4039b263e9bf2b9a,
    0x853b23a7602be05c,
    0x766b130a67d4cfda,
    0xa427e245b7426604,
    0xcab588a1def1053a,
    0x3830c2cc6fa7fc5e,
    0x1ccd79db757e77b2,
    0x051a5ea4db16470e,
    0xf9172ad1bccde23b,
    0xddfb9a0a0c09dd06,
    0x937bd2568ebf108e,
    0xaab42fac66004f75,
    0x08a280533bedaffa,
    0xede1a956656c35d4,
    0xe72f7062901345d5,
    0x33e049908bc5ad4c,
    0x871d84da20f0cf65,
    0x89969d3e2923bb71,
    0xd67382ae9bb3d2a9,
    0x8d523b6434f512a9,
    0x797799a85b82ed9f,
    0x90dd71a41530e4e3,
    0x14c329020261585d,
    0xb359d0f93efd208c,
    0x405678763dc35280,
    0xac9f2b893e398eb2,
    0x9f1d24ac46b6eca3,
    0x029fea0f1bc4ea84,
    0xd6005f05aef77ab6,
];
const HOTSPOT4096: &[u64] = &[0xb51c55f29698a130, 0xb3cb17be59bd5a16, 0x39b186dbac57ba54];
const ROAM4096: &[u64] = &[
    0x382780a48a0224dd,
    0x1ed2a0a232dd7243,
    0x54e316bfe6f7d9ac,
    0x58ddfb76d4ba82b9,
];
