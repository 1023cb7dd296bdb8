//! Golden pins for the names and hashes the rest of the system keys on.
//!
//! `ObfConfig::config_hash` is one third of every artifact-store key, and
//! `ObfKind::label` names every BENCH/exp row. A change to either silently
//! remaps stored artifacts or renames rows, so each value is pinned exactly.

use raindrop::{ObfConfig, RopConfig};
use raindrop_bench::{ropk_fractions, table2_configurations, ObfKind};
use raindrop_obfvm::{ImplicitAt, VmConfig};

/// The benchmark's five `protect` configurations, with their labels and
/// store-key hashes.
#[test]
fn protect_configurations_keep_their_labels_and_hashes() {
    let pins = [
        (
            ObfConfig::new().rop(RopConfig::ropk(1.0)),
            "ROP1.00",
            0xe481_25ec_9899_9544_22b2_47c6_a5f0_6329,
        ),
        (
            ObfConfig::new().rop(RopConfig::ropk(0.25)),
            "ROP0.25",
            0x6d63_7bb9_bc2a_2914_5331_230d_5e6c_9766,
        ),
        (
            ObfConfig::new().vm(VmConfig::with_implicit(2, ImplicitAt::Last)),
            "2VM-IMPlast",
            0xc274_349d_61a3_1a6c_2e75_8275_e7c6_4f8a,
        ),
        (
            ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
            "ROP1.00-over-1VM",
            0x160d_6785_3ca9_9c22_02be_c3ed_3c80_5b4a,
        ),
        (
            ObfConfig::new().rop(RopConfig::ropk(1.0)).vm(VmConfig::plain(1)),
            "1VM-over-ROP1.00",
            0x7906_95bb_a0ea_a181_cdeb_730f_3ad9_cbde,
        ),
    ];
    for (config, label, hash) in pins {
        assert_eq!(config.label(), label);
        assert_eq!(config.config_hash(), hash, "{label}");
    }
}

/// A per-pass restriction is part of the hash; an unrestricted pass between
/// two restricted ones hashes as before.
#[test]
fn restricted_configuration_keeps_its_hash() {
    let config = ObfConfig::new()
        .vm(VmConfig::plain(1))
        .only(&["f"])
        .rop(RopConfig::ropk(0.25))
        .vm(VmConfig::with_implicit(1, ImplicitAt::All))
        .only(&["g", "f", "g"]);
    assert_eq!(config.label(), "1VM-IMPall-over-ROP0.25-over-1VM");
    assert_eq!(config.config_hash(), 0x947e_2487_da12_564f_a90f_72a9_0a32_f3e0);
}

/// Every Table II row plus the cross-layer rows and the Fig. 5 / Table III
/// `ROPk` rows.
#[test]
fn obf_kind_labels_are_pinned() {
    let mut kinds = table2_configurations(true);
    kinds.push(ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None });
    kinds.push(ObfKind::VmOverRop { k: 1.0, layers: 1, implicit: ImplicitAt::None });
    kinds.push(ObfKind::RopOverVm { k: 0.25, layers: 2, implicit: ImplicitAt::Last });
    kinds.push(ObfKind::VmOverRop { k: 0.0, layers: 3, implicit: ImplicitAt::First });
    kinds.extend(ropk_fractions().into_iter().map(|k| ObfKind::Rop { k }));
    let labels: Vec<String> = kinds.iter().map(ObfKind::label).collect();
    assert_eq!(
        labels,
        [
            "NATIVE",
            "ROP0.05",
            "ROP0.25",
            "ROP0.50",
            "ROP0.75",
            "ROP1.00",
            "1VM-IMPall",
            "2VM",
            "2VM-IMPfirst",
            "2VM-IMPlast",
            "2VM-IMPall",
            "3VM",
            "3VM-IMPfirst",
            "3VM-IMPlast",
            "3VM-IMPall",
            "ROP1.00-over-1VM",
            "1VM-over-ROP1.00",
            "ROP0.25-over-2VM-IMPlast",
            "3VM-IMPfirst-over-ROP0.00",
            "ROP0.00",
            "ROP0.05",
            "ROP0.25",
            "ROP0.50",
            "ROP0.75",
            "ROP1.00",
        ]
    );
}
