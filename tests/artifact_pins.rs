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
    ("pidigits", "ROP1.00", 1, 0xf9c5_c611_3061_1e7a_730e_295a_4444_1bc4),
    ("pidigits", "ROP1.00", 2, 0x23e8_d09c_e6ed_ba1d_810e_199a_7e94_0a12),
    ("pidigits", "ROP0.25", 1, 0x5231_c0a4_28ff_8392_d2a6_3c41_6bb4_e881),
    ("pidigits", "ROP0.25", 2, 0x6334_c4b6_3d41_6776_50aa_a143_84a0_f598),
    ("pidigits", "2VM-IMPlast", 1, 0x5ffa_0571_66e7_71b8_fd24_2cf2_99b5_5ece),
    ("pidigits", "2VM-IMPlast", 2, 0xc932_a0f8_7f96_4d5a_82a8_6528_0fac_4ea0),
    ("pidigits", "ROP1.00-over-1VM", 1, 0x6ac2_c6c3_31fc_ad63_489e_2586_ed53_8aa1),
    ("pidigits", "ROP1.00-over-1VM", 2, 0x493d_bb08_5d4e_1f1e_aa63_b658_5ccf_d599),
    ("pidigits", "1VM-over-ROP1.00", 1, 0x0668_d123_acfc_46ef_c5d9_b24c_521e_cd38),
    ("pidigits", "1VM-over-ROP1.00", 2, 0x08b9_0a61_f891_b5c2_c1f7_e09e_dcf4_d801),
    ("depth-switch", "ROP1.00", 1, 0x17e2_ea66_988b_1cbd_a488_19bc_4ee2_f5ab),
    ("depth-switch", "ROP1.00", 2, 0xef11_877b_882d_46e8_89d0_6bf1_e44d_29a2),
    ("depth-switch", "ROP0.25", 1, 0xca82_7559_b036_adfa_95d1_12b4_8489_bdeb),
    ("depth-switch", "ROP0.25", 2, 0x663b_e413_2634_6b04_ba65_1d4b_98d6_549e),
    ("depth-switch", "2VM-IMPlast", 1, 0x2508_ef5b_b861_abc5_597f_1efb_50e9_05cb),
    ("depth-switch", "2VM-IMPlast", 2, 0xd428_46d2_462f_90b7_ed0d_a020_8b74_4f5e),
    ("depth-switch", "ROP1.00-over-1VM", 1, 0x9169_2193_87dd_f991_899c_6f9f_ac5f_3fb3),
    ("depth-switch", "ROP1.00-over-1VM", 2, 0xe93f_c2e1_20fb_0a8c_ad8c_89ed_d4ae_878c),
    ("depth-switch", "1VM-over-ROP1.00", 1, 0xb563_8403_48c5_073a_25e8_65fa_f687_76a6),
    ("depth-switch", "1VM-over-ROP1.00", 2, 0xd1b6_8fb4_734e_b474_8d21_9ba0_490a_bcb0),
    ("smc-cadence1", "ROP1.00", 1, 0xc6ba_5e86_d42c_5d56_83ad_bb22_4320_c086),
    ("smc-cadence1", "ROP1.00", 2, 0xdcd3_f9e7_a149_e498_488b_507c_1e03_4215),
    ("smc-cadence1", "ROP0.25", 1, 0xf6ed_057e_82c7_97cf_eaee_dda1_5403_5488),
    ("smc-cadence1", "ROP0.25", 2, 0x03ed_3b4f_d5f3_6d08_c91b_c7c0_617a_fe98),
    ("smc-cadence1", "2VM-IMPlast", 1, 0x6e5a_4bf7_7358_ba06_6a96_bea2_0533_09c9),
    ("smc-cadence1", "2VM-IMPlast", 2, 0xbc14_93b9_7e0d_65a1_67f7_4b2a_3339_52fa),
    ("smc-cadence1", "ROP1.00-over-1VM", 1, 0xc19c_e814_8305_8943_ef76_5127_3876_e678),
    ("smc-cadence1", "ROP1.00-over-1VM", 2, 0x1480_4c86_016a_1fae_6482_578c_a4c3_e099),
    ("smc-cadence1", "1VM-over-ROP1.00", 1, 0x1639_8c6c_5724_c8ae_230a_1117_48ce_ece1),
    ("smc-cadence1", "1VM-over-ROP1.00", 2, 0x267a_eef6_cc70_1b48_c8a1_b8a6_cc92_b6a5),
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
