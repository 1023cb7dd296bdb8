//! Golden pins for the bytes the protector emits.
//!
//! Every stored artifact is keyed by its source, configuration and seed, so
//! the same request must always produce the same image. A faster pipeline
//! that changes a single RNG draw would silently invalidate every store
//! entry; this suite pins the encoded image of the benchmark's five
//! `protect` configurations on three programs (a clbg kernel, a
//! giant-switch interpreter and a self-modifying program) at two seeds.

use raindrop::{stable_hash_bytes, ObfConfig, RopConfig};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_server::encode_image;
use raindrop_synth::{classes, ClassId, Workload};

/// The benchmark's five `protect` configurations.
fn configs() -> [ObfConfig; 5] {
    [
        ObfConfig::new().rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(0.25)),
        ObfConfig::new().vm(VmConfig::with_implicit(2, ImplicitAt::Last)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(1.0)).vm(VmConfig::plain(1)),
    ]
}

fn class_program(class: ClassId, name: &str) -> Workload {
    classes::generate(class, 0)
        .into_iter()
        .find(|cp| cp.workload.name == name)
        .unwrap_or_else(|| panic!("{name} is generated"))
        .workload
}

fn programs() -> [Workload; 3] {
    [
        raindrop_synth::clbg_suite()
            .into_iter()
            .find(|w| w.name == "pidigits")
            .expect("pidigits is a clbg kernel"),
        class_program(ClassId::AdversarialDepth, "depth-switch"),
        class_program(ClassId::AdversarialIcache, "smc-cadence1"),
    ]
}

/// `(program, configuration label, seed, stable hash of the encoded image)`.
const PINS: &[(&str, &str, u64, u128)] = &[
    ("pidigits", "ROP1.00", 1, 0x5e26_7038_6a8b_99b7_ae9e_8793_2ae7_67a6),
    ("pidigits", "ROP1.00", 2, 0x01b8_67e2_6309_d20f_22de_61fd_f216_31cc),
    ("pidigits", "ROP0.25", 1, 0x1eec_dbbd_5fab_7897_238d_50cd_6350_75bb),
    ("pidigits", "ROP0.25", 2, 0x9589_e7b3_40c7_6b28_b8a8_dada_acf1_d3f4),
    ("pidigits", "2VM-IMPlast", 1, 0x0cbc_4217_7cb8_c3e2_2715_aa40_4e34_79c4),
    ("pidigits", "2VM-IMPlast", 2, 0x0a05_9d54_27e8_0f1a_c16b_bba2_88e4_eb7c),
    ("pidigits", "ROP1.00-over-1VM", 1, 0x09dd_98ff_1345_85db_1784_c802_76f1_13e3),
    ("pidigits", "ROP1.00-over-1VM", 2, 0x3575_7911_8017_52f1_e9b3_2e8b_aec2_5aed),
    ("pidigits", "1VM-over-ROP1.00", 1, 0xad59_175e_9998_7a0c_26c7_e324_0516_8faa),
    ("pidigits", "1VM-over-ROP1.00", 2, 0x900f_5508_7cda_4aa4_0405_7130_5c36_c969),
    ("depth-switch", "ROP1.00", 1, 0xbff3_2941_5299_fb72_3cae_f946_4eb6_79e5),
    ("depth-switch", "ROP1.00", 2, 0xfcfe_f948_bf0c_6696_e99d_100b_cfb7_c053),
    ("depth-switch", "ROP0.25", 1, 0xbcef_26b2_b604_20d4_2c50_c451_8db6_cf86),
    ("depth-switch", "ROP0.25", 2, 0xebc0_5397_8204_4ccc_9733_7f28_f45b_0b23),
    ("depth-switch", "2VM-IMPlast", 1, 0x80af_ce24_b112_3a05_dfb0_de34_1449_067e),
    ("depth-switch", "2VM-IMPlast", 2, 0x707e_caad_7a4e_96b2_4f9d_f349_94ba_7c59),
    ("depth-switch", "ROP1.00-over-1VM", 1, 0x8fca_8024_a89d_26d0_e741_0ecf_23d1_66b7),
    ("depth-switch", "ROP1.00-over-1VM", 2, 0x99e4_4099_0584_bc93_c4f8_dadb_7e9c_98a0),
    ("depth-switch", "1VM-over-ROP1.00", 1, 0x52cd_e6ce_5203_94de_32f7_db47_88f8_8879),
    ("depth-switch", "1VM-over-ROP1.00", 2, 0x5dcf_bdfc_6501_8d5a_66f3_6b4e_a91e_1d17),
    ("smc-cadence1", "ROP1.00", 1, 0x6125_f61a_a7c7_2341_b30a_c235_0bbf_c4be),
    ("smc-cadence1", "ROP1.00", 2, 0xed13_d0ef_b804_fbe5_4a50_4ae6_2995_a586),
    ("smc-cadence1", "ROP0.25", 1, 0x47b6_cc13_ea56_fea8_b2c6_5eed_51a5_0df8),
    ("smc-cadence1", "ROP0.25", 2, 0x7a7b_4d58_98c2_0be6_dc5c_ec72_539b_133a),
    ("smc-cadence1", "2VM-IMPlast", 1, 0x6d28_6167_f056_c4aa_d2a9_691f_2e1c_8b39),
    ("smc-cadence1", "2VM-IMPlast", 2, 0x1be7_e067_e532_f0d9_231a_0d6c_f9e0_ee53),
    ("smc-cadence1", "ROP1.00-over-1VM", 1, 0xa920_6976_af8f_79c6_6756_0e77_a3aa_5c2d),
    ("smc-cadence1", "ROP1.00-over-1VM", 2, 0xd56e_c42a_ad1c_07ed_a78d_09bd_5392_42cd),
    ("smc-cadence1", "1VM-over-ROP1.00", 1, 0xc5f6_684f_76e4_17f3_cb40_9864_c5c7_41bc),
    ("smc-cadence1", "1VM-over-ROP1.00", 2, 0x29ab_d892_96de_23b7_57df_a7a0_9951_83a0),
];

#[test]
fn protected_images_are_byte_identical_to_the_pins() {
    let mut pins = PINS.iter();
    for w in programs() {
        for config in configs() {
            let label = config.label();
            for seed in [1, 2] {
                let (image, _) = config
                    .pipeline(seed)
                    .run_program(&w.program, &w.obfuscate)
                    .and_then(|run| run.into_strict())
                    .unwrap_or_else(|e| panic!("{} {label} seed {seed}: {e}", w.name));
                let hash = stable_hash_bytes(&encode_image(&image));
                let pin = pins.next().expect("one pin per artifact");
                assert_eq!((pin.0, pin.1, pin.2), (w.name.as_str(), label.as_str(), seed));
                assert_eq!(hash, pin.3, "{} {label} seed {seed}: got {hash:#034x}", w.name);
            }
        }
    }
    assert!(pins.next().is_none(), "every pin is checked");
}
