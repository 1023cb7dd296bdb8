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
    ("pidigits", "ROP1.00", 1, 0x25c0_75e3_adca_5520_b747_3cc4_f64a_572a),
    ("pidigits", "ROP1.00", 2, 0x7e91_24df_3dbf_b0bf_b1b9_ee51_ea13_9cf4),
    ("pidigits", "ROP0.25", 1, 0xf709_5ada_5e5e_82bc_14b9_5fce_c905_b111),
    ("pidigits", "ROP0.25", 2, 0x56ed_f86c_9947_dbe5_05b1_1a2c_28f0_f306),
    ("pidigits", "2VM-IMPlast", 1, 0x5ffa_0571_66e7_71b8_fd24_2cf2_99b5_5ece),
    ("pidigits", "2VM-IMPlast", 2, 0xc932_a0f8_7f96_4d5a_82a8_6528_0fac_4ea0),
    ("pidigits", "ROP1.00-over-1VM", 1, 0x4cd1_fa5c_8304_b2f3_1523_be66_3ae9_9bd8),
    ("pidigits", "ROP1.00-over-1VM", 2, 0x45ee_bb15_ebac_ceec_3600_2c54_2edc_f3e0),
    ("pidigits", "1VM-over-ROP1.00", 1, 0x52f9_6ca7_7f57_0251_f291_af42_f265_aa14),
    ("pidigits", "1VM-over-ROP1.00", 2, 0x3730_73ce_22eb_0606_f68d_c187_321d_460f),
    ("depth-switch", "ROP1.00", 1, 0xea2b_ff46_25ed_afdf_c6a4_112e_2737_8cf2),
    ("depth-switch", "ROP1.00", 2, 0x5955_5ba9_f50c_fc2b_d897_33ca_6b40_77ee),
    ("depth-switch", "ROP0.25", 1, 0x1fe4_d622_4e92_1964_6347_e31a_aa6d_a5e9),
    ("depth-switch", "ROP0.25", 2, 0xebfd_2538_d4a4_8a60_51ca_0894_891a_3872),
    ("depth-switch", "2VM-IMPlast", 1, 0x2508_ef5b_b861_abc5_597f_1efb_50e9_05cb),
    ("depth-switch", "2VM-IMPlast", 2, 0xd428_46d2_462f_90b7_ed0d_a020_8b74_4f5e),
    ("depth-switch", "ROP1.00-over-1VM", 1, 0x4986_f7f2_d9fc_54e0_80ff_ea87_ea9b_8521),
    ("depth-switch", "ROP1.00-over-1VM", 2, 0xe253_0373_7384_840a_9da5_ff5e_e8b4_c420),
    ("depth-switch", "1VM-over-ROP1.00", 1, 0x1f87_b7e3_1382_e016_4623_acc1_c06b_131c),
    ("depth-switch", "1VM-over-ROP1.00", 2, 0x9e93_b5fd_ee29_1975_5e7a_ddb8_c677_0cb6),
    ("smc-cadence1", "ROP1.00", 1, 0xaeaa_2db2_f40b_f07c_963a_cd3c_bcaf_706c),
    ("smc-cadence1", "ROP1.00", 2, 0xb769_7ec8_465e_508d_037b_2041_d744_2fc4),
    ("smc-cadence1", "ROP0.25", 1, 0xf9c6_df78_f950_3446_2f9d_b84a_b7b1_7554),
    ("smc-cadence1", "ROP0.25", 2, 0xc94f_f281_1300_4fba_3632_e118_3a04_a5ec),
    ("smc-cadence1", "2VM-IMPlast", 1, 0x3667_9456_efe7_a3b8_c141_ee31_36b6_81bf),
    ("smc-cadence1", "2VM-IMPlast", 2, 0xdc27_238e_f10e_d659_a21c_1a49_642f_6d67),
    ("smc-cadence1", "ROP1.00-over-1VM", 1, 0x0844_c7cb_0b5e_730d_d55f_16cf_898e_bec2),
    ("smc-cadence1", "ROP1.00-over-1VM", 2, 0x91ac_fc96_fa97_acd1_6821_33e1_84f6_1220),
    ("smc-cadence1", "1VM-over-ROP1.00", 1, 0xf131_1207_d150_4801_8dee_a992_527d_dde0),
    ("smc-cadence1", "1VM-over-ROP1.00", 2, 0x47f2_3075_8fd2_5c16_c9bd_4ac3_e3c1_b150),
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
