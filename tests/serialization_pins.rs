//! Golden pins for the serialized bytes that store keys and durable files
//! depend on.
//!
//! `source_hash` — one third of every artifact-store key — hashes a
//! program's compact JSON, and the compact JSON, pretty JSON and `recfile`
//! payload renderings are the wire and durable formats of every report,
//! checkpoint and store blob. A change to any renderer would silently remap
//! stored artifacts or turn old files into garbage, so this suite pins the
//! key of every clbg kernel and every seed-0 class program, and a digest of
//! each rendering of a fixed sample of types.

use raindrop::{stable_hash_bytes, ObfConfig, RopConfig};
use raindrop_attacks::concolic::{DseAttack, DseBudget, DseExplorer, Goal, InputSpec};
use raindrop_bench::{table2_configurations, ObfKind};
use raindrop_obfvm::{ImplicitAt, VmConfig};
use raindrop_server::{recfile, source_hash};
use raindrop_synth::{classes, codegen, generate_randomfun, paper_structures, Goal as RfGoal};
use serde::{Serialize, Value};
use std::time::Duration;

/// `(program name, source_hash over its obfuscation targets)`: the 10 clbg
/// kernels, then every class program of corpus seed 0 in registry order.
const KEY_PINS: &[(&str, u128)] = &[
    ("b-trees", 0x23ed_7334_38eb_917c_95a1_621a_45d7_256b),
    ("fannkuch", 0x2aa2_6505_ca6e_5d14_f4a8_9c9e_f0f2_de5f),
    ("fasta", 0x721a_c93f_2cc5_4792_e03b_5d8e_3c0e_2a9e),
    ("fasta-redux", 0xca4a_a865_b601_5dcd_5bbb_72a2_1d8e_857b),
    ("mandelbrot", 0x032a_2b9e_e27c_5c2b_095a_98b5_82ba_6b10),
    ("n-body", 0x01a7_0d27_7c3d_3419_305c_88ae_b34e_3a0d),
    ("pidigits", 0xef40_5800_3a26_56b6_f0ef_66f5_3634_0fa9),
    ("regex-redux", 0xd58c_e295_b00d_3eda_bd3d_65bc_f4af_9db2),
    ("rev-comp", 0x016d_14c5_e70b_0a73_e1ca_45f4_0a11_1992),
    ("sp-norm", 0xc46d_ed9b_3dd7_3647_b009_def7_cc9d_b28f),
    ("stress-s2-0", 0x0636_0b15_67cc_2553_1280_f54e_d8d6_d1b3),
    ("stress-s0-1", 0xb2af_04cb_0f0e_d221_7ad3_726d_912b_e185),
    ("app-crc", 0xb168_9c00_830a_7181_7c7e_93f9_30eb_3f4d),
    ("app-parser", 0x56de_38b6_6c2f_1d44_fae7_669d_399b_2ace),
    ("app-dfa", 0x000e_5902_ea85_d865_d85c_1bc1_68b8_89ce),
    ("db-hash", 0x18a4_5306_5879_a8a2_eb75_154a_1e2b_99a2),
    ("db-btree", 0xb28a_b239_9483_f0ac_59fb_88e5_bfc2_a578),
    ("smc-cadence1", 0x95e1_1a07_167f_8a49_e29b_67ed_0efc_f78f),
    ("smc-cadence2", 0xc059_18c2_b764_dd98_21f2_6a37_b204_fcc4),
    ("depth-recursion", 0xddb1_b911_d8df_1754_39d7_acf6_c565_33df),
    ("depth-switch", 0x7475_543a_fc69_e539_1848_781e_ebfe_cd3b),
];

#[test]
fn source_hashes_of_the_clbg_kernels_and_class_programs_are_pinned() {
    let clbg = raindrop_synth::clbg_suite().into_iter();
    let corpus = classes::generate_all(0).into_iter().map(|cp| cp.workload);
    let got: Vec<(String, u128)> = clbg
        .chain(corpus)
        .map(|w| {
            let key = source_hash(&w.program, &w.obfuscate);
            (w.name, key)
        })
        .collect();
    let want: Vec<(String, u128)> = KEY_PINS.iter().map(|&(n, k)| (n.to_string(), k)).collect();
    assert_eq!(got, want, "source_hash moved: every stored artifact key would change");
}

/// Digests of one value's three renderings: compact JSON, pretty JSON and
/// the `recfile` payload.
fn digests<T: Serialize>(value: &T) -> [u128; 3] {
    [
        stable_hash_bytes(serde_json::to_string(value).expect("finite").as_bytes()),
        stable_hash_bytes(serde_json::to_string_pretty(value).expect("finite").as_bytes()),
        stable_hash_bytes(&recfile::encode_payload(value)),
    ]
}

/// A hand-built tree reaching every `Value` variant and the renderers'
/// edge cases: escapes, multi-byte characters, empty containers, and
/// floats with and without a fractional part.
fn edge_value() -> Value {
    Value::Map(vec![
        ("null".into(), Value::Null),
        ("bools".into(), Value::Seq(vec![Value::Bool(true), Value::Bool(false)])),
        (
            "ints".into(),
            Value::Seq(vec![Value::I64(i64::MIN), Value::I64(-1), Value::U64(u64::MAX)]),
        ),
        (
            "floats".into(),
            Value::Seq(vec![
                Value::F64(2.0),
                Value::F64(-0.0),
                Value::F64(0.1),
                Value::F64(1e300),
                Value::F64(-2.5e-7),
            ]),
        ),
        ("escapes".into(), Value::Str("q\"b\\n\nr\rt\t\u{1}\u{1f}\u{7f}".into())),
        ("unicode".into(), Value::Str("é€😀 after".into())),
        ("empty".into(), Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])])),
        ("bytes".into(), Value::Bytes(vec![0, 1, 127, 128, 255])),
        ("no bytes".into(), Value::Bytes(vec![])),
        ("k\"ey".into(), Value::Map(vec![("inner".into(), Value::Str(String::new()))])),
    ])
}

/// `(sample, [compact JSON, pretty JSON, recfile payload] digests)`.
const RENDER_PINS: &[(&str, [u128; 3])] = &[
    (
        "program",
        [
            0x409e_b196_f2c5_7439_c2e8_0041_5bb9_a981,
            0xb3cf_74da_9697_3e03_ac72_d932_4cf4_6d57,
            0xdb4a_48bb_a8f4_df26_c537_e707_05e4_4640,
        ],
    ),
    (
        "image",
        [
            0x5851_fab1_7c10_5edf_a5bc_a8d4_6a98_672c,
            0x25bb_fd8d_402e_684e_acfb_afcd_6a3c_3548,
            0x2213_55f9_6d14_00d2_a402_dd4f_b997_d036,
        ],
    ),
    (
        "dse_outcome",
        [
            0x4d85_fc59_0e11_aaf1_3ed1_da3e_0ca1_bb60,
            0xe54e_781d_bdeb_ea55_b4e8_a678_46db_9646,
            0x2bf3_0382_5597_b9c0_19ea_ad21_4565_0b08,
        ],
    ),
    (
        "dse_frontier",
        [
            0x13d1_95b6_f326_9200_65d9_97a9_c091_15f3,
            0x8e08_d280_fe67_13ae_5894_b7bc_25d9_197b,
            0x0063_1077_57d0_210b_b4d3_3526_9709_670f,
        ],
    ),
    (
        "obf_config",
        [
            0xa5d0_aa07_4169_e6cb_6c33_9d9b_bbc6_e33c,
            0x4301_6776_bcfd_b00b_5670_6bae_47fe_e222,
            0x1606_d95f_364a_21f1_a44a_9888_4640_ee81,
        ],
    ),
    (
        "obf_kinds",
        [
            0x02ab_e4ba_85af_abac_c6eb_e849_c4a9_001c,
            0x20eb_4bc5_60c2_df00_73c4_519c_441f_99b4,
            0x08f1_edc0_64fe_da47_ebae_435d_83d3_4a90,
        ],
    ),
    (
        "edge_value",
        [
            0x125a_6b65_0c21_b46f_96fb_705c_bdd5_f247,
            0x7417_b58c_275d_6f49_37d9_cfda_1696_0369,
            0x1a4f_5581_2be8_945f_cd64_f0f5_0334_5175,
        ],
    ),
];

#[test]
fn renderings_of_a_fixed_sample_are_pinned() {
    let pidigits = raindrop_synth::clbg_suite()
        .into_iter()
        .find(|w| w.name == "pidigits")
        .expect("pidigits is a clbg kernel");
    let image = codegen::compile(&pidigits.program).expect("pidigits compiles");
    let config = ObfConfig::new()
        .vm(VmConfig::with_implicit(2, ImplicitAt::Last))
        .only(&["f"])
        .rop(RopConfig::ropk(0.25));
    let mut kinds = table2_configurations(true);
    kinds.push(ObfKind::RopOverVm { k: 1.0, layers: 1, implicit: ImplicitAt::None });

    // A real attack result and a paused frontier, with wall time fixed.
    let (name, structure) = paper_structures().into_iter().next().expect("a structure");
    let f = generate_randomfun(raindrop_synth::RandomFunConfig {
        structure,
        structure_name: name,
        input_size: 4,
        seed: 2,
        goal: RfGoal::SecretFinding,
        loop_size: 2,
    });
    let target = codegen::compile(&f.program).expect("randomfun compiles");
    let budget = DseBudget {
        total_instructions: 4_000_000,
        per_path_instructions: 500_000,
        max_paths: 40,
        max_wall: Duration::from_secs(3600),
        max_solver_calls: 2_000,
        ..DseBudget::default()
    };
    let spec = InputSpec::RegisterArg { size_bytes: 4 };
    let mut outcome =
        DseAttack::new(&target, &f.name, spec.clone(), budget).run(Goal::Secret { want: 1 });
    assert!(outcome.success, "the sample outcome carries a witness");
    outcome.wall = Duration::from_micros(1_234_567);
    let mut attack = DseAttack::new(&target, &f.name, spec, budget);
    let mut explorer = DseExplorer::start(&mut attack, Goal::Secret { want: 1 });
    assert!(explorer.advance(Some(2)).is_none(), "paused with pending work");
    let mut frontier = explorer.frontier();
    frontier.wall = Duration::from_micros(765_432);

    let got: Vec<(&str, [u128; 3])> = vec![
        ("program", digests(&pidigits.program)),
        ("image", digests(&image)),
        ("dse_outcome", digests(&outcome)),
        ("dse_frontier", digests(&frontier)),
        ("obf_config", digests(&config)),
        ("obf_kinds", digests(&kinds)),
        ("edge_value", digests(&edge_value())),
    ];
    assert_eq!(got, RENDER_PINS, "a serialized rendering moved");
}

/// The committed reports were written by `to_string_pretty`; parsing them
/// and rendering again must reproduce every byte.
#[test]
fn committed_reports_re_render_byte_for_byte() {
    for name in ["BENCH_static.json", "BENCH_workloads.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).expect("committed report");
        let value = serde_json::value_from_str(&text).expect("report parses");
        assert_eq!(serde_json::to_string_pretty(&value).expect("finite"), text, "{name}");
    }
}
