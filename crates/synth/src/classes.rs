//! Named workload classes: the benchmark-class methodology of the
//! evaluation, modelled on allocator-bench practice — every class is
//! measured, the adversarial worst cases are documented and runnable but
//! excluded from headline rows.
//!
//! A [`ClassId`] names one class; [`registry`] lists all of them with their
//! headline/worst-case status; [`generate`] produces deterministic, seeded
//! [`ClassProgram`]s for a class. Every class program carries *reference
//! semantics*: a MiniC [`Program`] whose evaluation under the
//! [`Interp`] yields the value the compiled workload
//! must produce on the emulator. For most classes the reference *is* the
//! workload program; the self-modifying-code class is the exception — its
//! driver patches an immediate in guest text (something the interpreter
//! cannot model), so it ships a separate pure program computing the same
//! checksum.
//!
//! The classes:
//!
//! * `synthetic-stress` — the existing Tigress-style random-function corpus,
//!   reclassified (point-test and coverage flavours);
//! * `application` — parser/checksum/state-machine shapes: a table-driven
//!   CRC, a byte-scanning number parser, a seeded DFA token machine;
//! * `database` — hash-table and binary-search-tree lookups over guest heap
//!   memory through the shared bump-allocator runtime;
//! * `adversarial-icache` — self-modifying text: the driver stores over an
//!   immediate inside a helper's body every iteration, forcing
//!   write-generation invalidation of the predecoded icache;
//! * `adversarial-depth` — deep recursion and a giant-switch bytecode
//!   interpreter, stressing the DSE frontier and the expression arena's
//!   DAG-size hazard cap.

use crate::codegen;
use crate::interp::Interp;
use crate::minic::{BinOp, Expr, Global, Program, Stmt};
use crate::randomfuns::{self, RandomFunConfig};
use crate::workloads::{
    add, and, arg, assign, b, c, call, func, gaddr, if_, load, loadb, mul, ret, shr, sub, v,
    while_, with_runtime, xor, Workload,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A named workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClassId {
    /// Tigress-style random hash functions (the historical corpus).
    SyntheticStress,
    /// Parsers, checksums/CRCs and state machines.
    Application,
    /// Hash-table and BST lookups over guest heap memory.
    Database,
    /// Self-modifying text stressing icache write-generation invalidation.
    AdversarialIcache,
    /// Deep recursion and giant-switch interpreters.
    AdversarialDepth,
}

impl ClassId {
    /// The class's stable name (used by `--class` filters and reports).
    pub fn name(self) -> &'static str {
        match self {
            ClassId::SyntheticStress => "synthetic-stress",
            ClassId::Application => "application",
            ClassId::Database => "database",
            ClassId::AdversarialIcache => "adversarial-icache",
            ClassId::AdversarialDepth => "adversarial-depth",
        }
    }

    /// Every registered class, in registry order.
    pub fn all() -> [ClassId; 5] {
        [
            ClassId::SyntheticStress,
            ClassId::Application,
            ClassId::Database,
            ClassId::AdversarialIcache,
            ClassId::AdversarialDepth,
        ]
    }

    /// Parses a class name as printed by [`ClassId::name`].
    pub fn from_name(name: &str) -> Option<ClassId> {
        ClassId::all().into_iter().find(|c| c.name() == name)
    }
}

/// Registry entry for one class.
#[derive(Debug, Clone, Serialize)]
pub struct ClassSpec {
    /// The class.
    pub id: ClassId,
    /// Whether the class contributes to headline overhead rows. Worst-case
    /// classes are measured and reported, but excluded from headlines.
    pub headline: bool,
    /// One-line description for reports.
    pub description: &'static str,
}

/// The workload-class registry, in reporting order.
pub fn registry() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            id: ClassId::SyntheticStress,
            headline: true,
            description: "Tigress-style random hash functions (point test + coverage)",
        },
        ClassSpec {
            id: ClassId::Application,
            headline: true,
            description: "table-driven CRC, number parser, DFA token machine",
        },
        ClassSpec {
            id: ClassId::Database,
            headline: true,
            description: "open-addressing hash table and BST lookups over guest heap",
        },
        ClassSpec {
            id: ClassId::AdversarialIcache,
            headline: false,
            description: "self-modifying text forcing icache write-generation invalidation",
        },
        ClassSpec {
            id: ClassId::AdversarialDepth,
            headline: false,
            description: "deep recursion and giant-switch bytecode interpreter",
        },
    ]
}

/// One generated program of a class: the runnable [`Workload`] plus its
/// reference semantics.
#[derive(Debug, Clone)]
pub struct ClassProgram {
    /// The class this program belongs to.
    pub class: ClassId,
    /// The runnable workload (program, entry, canonical args, obfuscation
    /// targets).
    pub workload: Workload,
    /// Reference program evaluated by the MiniC interpreter. Identical to
    /// `workload.program` (minus the point-test wrapper) except for the
    /// self-modifying-code class.
    pub reference: Program,
    /// Entry function of the reference program.
    pub ref_entry: String,
    /// The point-test wrapper in `workload.program`: returns 1 iff the
    /// entry's checksum of its argument equals the canonical argument's
    /// checksum. The paper-style DSE secret-finding target (`want: 1`) —
    /// without it the checksum programs would have no input-dependent
    /// branch for an attacker to solve.
    pub check_entry: String,
}

impl ClassProgram {
    /// The value the workload must produce on its canonical arguments,
    /// computed by the reference interpreter.
    pub fn reference_value(&self) -> u64 {
        self.reference_value_for(self.workload.args[0])
    }

    /// The reference value for an arbitrary first argument.
    pub fn reference_value_for(&self, x: u64) -> u64 {
        let mut interp = Interp::new(&self.reference);
        interp.call(&self.ref_entry, &[x]).expect("reference program evaluates")
    }
}

/// Generates the deterministic seeded programs of one class. Every entry
/// function takes exactly one argument (a checksum seed below 256, so
/// byte-exhaustive DSE input specs apply) and every loop bound is a
/// generation-time constant — the argument never controls trip counts.
pub fn generate(class: ClassId, seed: u64) -> Vec<ClassProgram> {
    match class {
        ClassId::SyntheticStress => synthetic_stress(seed),
        ClassId::Application => application(seed),
        ClassId::Database => database(seed),
        ClassId::AdversarialIcache => adversarial_icache(seed),
        ClassId::AdversarialDepth => adversarial_depth(seed),
    }
}

/// Generates every class's programs for one seed, in registry order.
pub fn generate_all(seed: u64) -> Vec<ClassProgram> {
    registry().into_iter().flat_map(|s| generate(s.id, seed)).collect()
}

fn class_rng(class: ClassId, seed: u64) -> ChaCha8Rng {
    // Per-class stream separation: the same seed must not entangle the
    // draws of different classes.
    let tag = crate::corpus::stream_tag(class.name().as_bytes());
    ChaCha8Rng::seed_from_u64(seed ^ tag)
}

fn self_referential(class: ClassId, workload: Workload) -> ClassProgram {
    let reference = workload.program.clone();
    let ref_entry = workload.entry.clone();
    with_check(ClassProgram { class, workload, reference, ref_entry, check_entry: String::new() })
}

/// Appends the point-test wrapper `<entry>_check(x) = entry(x) == K` (K the
/// canonical argument's checksum) to the workload program. Appending never
/// moves earlier functions, so the self-modifying class's patched-site
/// address stays valid.
fn with_check(mut cp: ClassProgram) -> ClassProgram {
    let k = cp.reference_value();
    let entry = cp.workload.entry.clone();
    let name = format!("{entry}_check");
    cp.workload.program.functions.push(func(
        &name,
        1,
        0,
        vec![if_(
            b(BinOp::Eq, call(&entry, vec![arg(0)]), c(k as i64)),
            vec![ret(c(1))],
            vec![ret(c(0))],
        )],
    ));
    cp.check_entry = name;
    cp
}

// --- synthetic-stress ------------------------------------------------------

fn synthetic_stress(seed: u64) -> Vec<ClassProgram> {
    let mut rng = class_rng(ClassId::SyntheticStress, seed);
    let structures = randomfuns::paper_structures();
    let mut out = Vec::new();
    for (i, goal) in
        [randomfuns::Goal::SecretFinding, randomfuns::Goal::CodeCoverage].into_iter().enumerate()
    {
        let si = rng.gen_range(0..structures.len());
        let (name, structure) = &structures[si];
        let rf = randomfuns::generate(RandomFunConfig {
            structure: structure.clone(),
            structure_name: name.clone(),
            input_size: 1,
            seed: rng.gen(),
            goal,
            loop_size: rng.gen_range(2..6),
        });
        let input = match goal {
            randomfuns::Goal::SecretFinding => rf.secret_input & 0xff,
            randomfuns::Goal::CodeCoverage => rng.gen::<u64>() & 0xff,
        };
        out.push(self_referential(
            ClassId::SyntheticStress,
            Workload {
                name: format!("stress-s{si}-{i}"),
                entry: rf.name.clone(),
                args: vec![input],
                obfuscate: vec![rf.name.clone()],
                program: rf.program,
            },
        ));
    }
    out
}

// --- application -----------------------------------------------------------

fn application(seed: u64) -> Vec<ClassProgram> {
    let mut rng = class_rng(ClassId::Application, seed);
    vec![app_crc(&mut rng), app_parser(&mut rng), app_dfa(&mut rng)]
}

/// Table-driven CRC: `crc = tab[(crc ^ buf[i]) & 0xff] ^ (crc >> 8)`.
fn app_crc(rng: &mut ChaCha8Rng) -> ClassProgram {
    let mut tab = Vec::with_capacity(256 * 8);
    for _ in 0..256 {
        tab.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
    }
    let len = 160 + rng.gen_range(0..64i64);
    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    let main = func(
        "app_crc_main",
        1,
        2,
        vec![
            assign(0, arg(0)), // crc
            assign(1, c(0)),   // i
            while_(
                b(BinOp::Lt, v(1), c(len)),
                vec![
                    assign(
                        0,
                        xor(
                            load(add(
                                gaddr("crc_tab"),
                                mul(
                                    and(xor(v(0), loadb(add(gaddr("crc_buf"), v(1)))), c(0xff)),
                                    c(8),
                                ),
                            )),
                            shr(v(0), c(8)),
                        ),
                    ),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            ret(v(0)),
        ],
    );
    let program = Program {
        functions: vec![main],
        globals: vec![
            Global { name: "crc_tab".into(), bytes: tab },
            Global { name: "crc_buf".into(), bytes: data },
        ],
    };
    self_referential(
        ClassId::Application,
        Workload {
            name: "app-crc".into(),
            program,
            entry: "app_crc_main".into(),
            args: vec![0x5a],
            obfuscate: vec!["app_crc_main".into()],
        },
    )
}

/// Byte-scanning number parser: skips spaces, accumulates decimal digits,
/// folds each `;`-terminated field into a running checksum.
fn app_parser(rng: &mut ChaCha8Rng) -> ClassProgram {
    let mut text = Vec::new();
    for _ in 0..rng.gen_range(18..28) {
        let pad = rng.gen_range(0..3);
        text.extend(std::iter::repeat_n(b' ', pad));
        for _ in 0..rng.gen_range(1..6) {
            text.push(b'0' + rng.gen_range(0..10u8));
        }
        text.push(b';');
    }
    text.push(0);
    let mix = (rng.gen::<u64>() | 1) as i64;
    // locals: 0 = sum, 1 = cur, 2 = i, 3 = ch
    let main = func(
        "app_parse_main",
        1,
        4,
        vec![
            assign(0, arg(0)),
            assign(1, c(0)),
            assign(2, c(0)),
            while_(
                b(BinOp::Ne, loadb(add(gaddr("parse_buf"), v(2))), c(0)),
                vec![
                    assign(3, loadb(add(gaddr("parse_buf"), v(2)))),
                    if_(
                        and(b(BinOp::Ge, v(3), c(48)), b(BinOp::Le, v(3), c(57))),
                        vec![assign(1, add(mul(v(1), c(10)), sub(v(3), c(48))))],
                        vec![if_(
                            b(BinOp::Eq, v(3), c(b';' as i64)),
                            vec![assign(0, mul(xor(v(0), v(1)), c(mix))), assign(1, c(0))],
                            vec![],
                        )],
                    ),
                    assign(2, add(v(2), c(1))),
                ],
            ),
            ret(v(0)),
        ],
    );
    let program = Program {
        functions: vec![main],
        globals: vec![Global { name: "parse_buf".into(), bytes: text }],
    };
    self_referential(
        ClassId::Application,
        Workload {
            name: "app-parser".into(),
            program,
            entry: "app_parse_main".into(),
            args: vec![0x11],
            obfuscate: vec!["app_parse_main".into()],
        },
    )
}

/// Seeded DFA token machine: 8 states x 16 symbol classes, transitions from
/// a generated table, output folds the visited states.
fn app_dfa(rng: &mut ChaCha8Rng) -> ClassProgram {
    let mut tab = Vec::with_capacity(8 * 16 * 8);
    for _ in 0..(8 * 16) {
        tab.extend_from_slice(&rng.gen_range(0..8u64).to_le_bytes());
    }
    let len = 128 + rng.gen_range(0..32i64);
    let input: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    // locals: 0 = state, 1 = out, 2 = i
    let main = func(
        "app_dfa_main",
        1,
        3,
        vec![
            assign(0, and(arg(0), c(7))),
            assign(1, arg(0)),
            assign(2, c(0)),
            while_(
                b(BinOp::Lt, v(2), c(len)),
                vec![
                    assign(
                        0,
                        load(add(
                            gaddr("dfa_tab"),
                            mul(
                                add(
                                    mul(v(0), c(16)),
                                    and(loadb(add(gaddr("dfa_in"), v(2))), c(15)),
                                ),
                                c(8),
                            ),
                        )),
                    ),
                    assign(1, add(v(1), add(mul(v(0), v(0)), v(2)))),
                    assign(2, add(v(2), c(1))),
                ],
            ),
            ret(xor(v(1), v(0))),
        ],
    );
    let program = Program {
        functions: vec![main],
        globals: vec![
            Global { name: "dfa_tab".into(), bytes: tab },
            Global { name: "dfa_in".into(), bytes: input },
        ],
    };
    self_referential(
        ClassId::Application,
        Workload {
            name: "app-dfa".into(),
            program,
            entry: "app_dfa_main".into(),
            args: vec![0x2d],
            obfuscate: vec!["app_dfa_main".into()],
        },
    )
}

// --- database --------------------------------------------------------------

fn database(seed: u64) -> Vec<ClassProgram> {
    let mut rng = class_rng(ClassId::Database, seed);
    vec![db_hash(&mut rng), db_btree(&mut rng)]
}

/// Open-addressing hash table over guest heap memory: `malloc` a 128-slot
/// table of (key, value) pairs, insert 24 derived keys with linear probing,
/// then look up a mix of present and absent keys.
fn db_hash(rng: &mut ChaCha8Rng) -> ClassProgram {
    const BUCKETS: i64 = 128;
    const INSERTS: i64 = 24;
    const LOOKUPS: i64 = 40;
    let k0 = (rng.gen::<u64>() | 1) as i64;
    let c0 = rng.gen::<u64>() as i64;
    let c1 = rng.gen::<u64>() as i64;
    // key(j) = ((j * k0) ^ c0) | 1 — nonzero, so 0 can mean "empty slot".
    let key_of = |j: Expr| -> Expr { b(BinOp::Or, xor(mul(j, c(k0)), c(c0)), c(1)) };
    // hash(k) = (k * k0) >> 57 masked to the table size.
    let hash_of = |k: Expr| -> Expr { and(shr(mul(k, c(k0)), c(57)), c(BUCKETS - 1)) };
    // locals: 0 = table, 1 = i, 2 = k, 3 = idx, 4 = sum
    let main = func(
        "db_hash_main",
        1,
        5,
        vec![
            assign(0, call("malloc", vec![c(BUCKETS * 16)])),
            assign(1, c(1)),
            while_(
                b(BinOp::Le, v(1), c(INSERTS)),
                vec![
                    assign(2, key_of(v(1))),
                    assign(3, hash_of(v(2))),
                    while_(
                        b(BinOp::Ne, load(add(v(0), mul(v(3), c(16)))), c(0)),
                        vec![assign(3, and(add(v(3), c(1)), c(BUCKETS - 1)))],
                    ),
                    Stmt::Store(add(v(0), mul(v(3), c(16))), v(2)),
                    Stmt::Store(add(add(v(0), mul(v(3), c(16))), c(8)), xor(v(2), c(c1))),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            assign(4, arg(0)),
            assign(1, c(1)),
            while_(
                b(BinOp::Le, v(1), c(LOOKUPS)),
                vec![
                    // Present for j <= INSERTS, absent beyond.
                    assign(2, key_of(v(1))),
                    assign(3, hash_of(v(2))),
                    while_(
                        and(
                            b(BinOp::Ne, load(add(v(0), mul(v(3), c(16)))), c(0)),
                            b(BinOp::Ne, load(add(v(0), mul(v(3), c(16)))), v(2)),
                        ),
                        vec![assign(3, and(add(v(3), c(1)), c(BUCKETS - 1)))],
                    ),
                    if_(
                        b(BinOp::Eq, load(add(v(0), mul(v(3), c(16)))), v(2)),
                        vec![assign(4, add(v(4), load(add(add(v(0), mul(v(3), c(16))), c(8)))))],
                        vec![assign(4, xor(v(4), shr(v(2), c(13))))],
                    ),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            ret(v(4)),
        ],
    );
    self_referential(
        ClassId::Database,
        Workload {
            name: "db-hash".into(),
            program: with_runtime(vec![main], vec![]),
            entry: "db_hash_main".into(),
            args: vec![0x3c],
            obfuscate: vec!["db_hash_main".into()],
        },
    )
}

/// Binary-search-tree lookups over guest heap memory: iterative inserts of
/// bounded keys into `malloc`'d nodes, then a present/absent probe sweep.
/// Node layout: `[left, right, key, value]`.
fn db_btree(rng: &mut ChaCha8Rng) -> ClassProgram {
    const INSERTS: i64 = 20;
    const LOOKUPS: i64 = 28;
    let k0 = (rng.gen::<u64>() | 1) as i64;
    let c0 = rng.gen::<u64>() as i64;
    let vm = (rng.gen::<u64>() | 1) as i64;
    let pr = (rng.gen::<u64>() | 1) as i64;
    let key_of = |j: Expr| -> Expr { and(xor(mul(j, c(k0)), c(c0)), c(0xffff)) };
    // locals: 0 = root, 1 = i, 2 = k, 3 = node, 4 = cur, 5 = done, 6 = sum
    let main = func(
        "db_btree_main",
        1,
        7,
        vec![
            assign(0, call("malloc", vec![c(32)])),
            Stmt::Store(add(v(0), c(16)), key_of(c(1))),
            Stmt::Store(add(v(0), c(24)), mul(key_of(c(1)), c(vm))),
            assign(1, c(2)),
            while_(
                b(BinOp::Le, v(1), c(INSERTS)),
                vec![
                    assign(2, key_of(v(1))),
                    assign(3, call("malloc", vec![c(32)])),
                    Stmt::Store(add(v(3), c(16)), v(2)),
                    Stmt::Store(add(v(3), c(24)), mul(v(2), c(vm))),
                    assign(4, v(0)),
                    assign(5, c(0)),
                    while_(
                        b(BinOp::Eq, v(5), c(0)),
                        vec![if_(
                            b(BinOp::Lt, v(2), load(add(v(4), c(16)))),
                            vec![if_(
                                b(BinOp::Eq, load(v(4)), c(0)),
                                vec![Stmt::Store(v(4), v(3)), assign(5, c(1))],
                                vec![assign(4, load(v(4)))],
                            )],
                            vec![if_(
                                b(BinOp::Eq, load(add(v(4), c(8))), c(0)),
                                vec![Stmt::Store(add(v(4), c(8)), v(3)), assign(5, c(1))],
                                vec![assign(4, load(add(v(4), c(8))))],
                            )],
                        )],
                    ),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            assign(6, arg(0)),
            assign(1, c(0)),
            while_(
                b(BinOp::Lt, v(1), c(LOOKUPS)),
                vec![
                    // Even probes hit inserted keys, odd probes likely miss.
                    if_(
                        b(BinOp::Eq, and(v(1), c(1)), c(0)),
                        vec![assign(2, key_of(add(shr(v(1), c(1)), c(1))))],
                        vec![assign(2, and(add(mul(v(1), c(pr)), c(c0)), c(0xffff)))],
                    ),
                    assign(4, v(0)),
                    while_(
                        b(BinOp::Ne, v(4), c(0)),
                        vec![if_(
                            b(BinOp::Eq, v(2), load(add(v(4), c(16)))),
                            vec![assign(6, add(v(6), load(add(v(4), c(24))))), assign(4, c(0))],
                            vec![if_(
                                b(BinOp::Lt, v(2), load(add(v(4), c(16)))),
                                vec![assign(4, load(v(4)))],
                                vec![assign(4, load(add(v(4), c(8))))],
                            )],
                        )],
                    ),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            ret(v(6)),
        ],
    );
    self_referential(
        ClassId::Database,
        Workload {
            name: "db-btree".into(),
            program: with_runtime(vec![main], vec![]),
            entry: "db_btree_main".into(),
            args: vec![0x51],
            obfuscate: vec!["db_btree_main".into()],
        },
    )
}

// --- adversarial-depth -----------------------------------------------------

fn adversarial_depth(seed: u64) -> Vec<ClassProgram> {
    let mut rng = class_rng(ClassId::AdversarialDepth, seed);
    vec![depth_recursion(&mut rng), depth_switch(&mut rng)]
}

/// Deep recursion: a ~100–140-frame recursive fold (below the reference
/// interpreter's 256-deep call limit) under a mixing entry function.
fn depth_recursion(rng: &mut ChaCha8Rng) -> ClassProgram {
    let depth = 100 + rng.gen_range(0..40i64);
    let k = (rng.gen::<u64>() | 1) as i64;
    let m = rng.gen::<u64>() as i64;
    let rec = func(
        "deep_rec",
        2,
        0,
        vec![
            if_(b(BinOp::Eq, arg(0), c(0)), vec![ret(arg(1))], vec![]),
            ret(call(
                "deep_rec",
                vec![sub(arg(0), c(1)), xor(add(mul(arg(1), c(k)), arg(0)), c(m))],
            )),
        ],
    );
    let main = func(
        "deep_main",
        1,
        2,
        vec![
            assign(0, arg(0)),
            assign(1, c(0)),
            while_(
                b(BinOp::Lt, v(1), c(8)),
                vec![assign(0, add(mul(v(0), c(33)), v(1))), assign(1, add(v(1), c(1)))],
            ),
            ret(call("deep_rec", vec![c(depth), v(0)])),
        ],
    );
    self_referential(
        ClassId::AdversarialDepth,
        Workload {
            name: "depth-recursion".into(),
            program: Program { functions: vec![rec, main], globals: vec![] },
            entry: "deep_main".into(),
            args: vec![0x44],
            obfuscate: vec!["deep_main".into()],
        },
    )
}

/// Giant-switch bytecode interpreter: a seeded 2-byte-op program executed
/// through an 8-armed if-else dispatch chain; the odd/even branch of opcode
/// 6 depends on the (symbolic) accumulator, so DSE forks per occurrence.
fn depth_switch(rng: &mut ChaCha8Rng) -> ClassProgram {
    let ops = 40 + rng.gen_range(0..16i64);
    let mut code = Vec::with_capacity(ops as usize * 2);
    for _ in 0..ops {
        code.push(rng.gen_range(0..8u8));
        code.push(rng.gen::<u8>());
    }
    let len = code.len() as i64;
    // locals: 0 = acc, 1 = pc, 2 = op, 3 = im
    let dispatch = vec![if_(
        b(BinOp::Eq, v(2), c(0)),
        vec![assign(0, add(v(0), v(3)))],
        vec![if_(
            b(BinOp::Eq, v(2), c(1)),
            vec![assign(0, xor(v(0), b(BinOp::Shl, v(3), c(3))))],
            vec![if_(
                b(BinOp::Eq, v(2), c(2)),
                vec![assign(0, mul(v(0), b(BinOp::Or, v(3), c(1))))],
                vec![if_(
                    b(BinOp::Eq, v(2), c(3)),
                    vec![assign(0, sub(v(0), v(3)))],
                    vec![if_(
                        b(BinOp::Eq, v(2), c(4)),
                        vec![assign(0, b(BinOp::Or, b(BinOp::Shl, v(0), c(1)), shr(v(0), c(63))))],
                        vec![if_(
                            b(BinOp::Eq, v(2), c(5)),
                            vec![assign(0, xor(v(0), Expr::un(crate::minic::UnOp::Not, v(3))))],
                            vec![if_(
                                b(BinOp::Eq, v(2), c(6)),
                                vec![if_(
                                    b(BinOp::Eq, and(v(0), c(1)), c(1)),
                                    vec![assign(0, add(v(0), v(3)))],
                                    vec![assign(0, xor(v(0), v(3)))],
                                )],
                                vec![assign(0, add(v(0), v(1)))],
                            )],
                        )],
                    )],
                )],
            )],
        )],
    )];
    let mut body = vec![
        assign(0, arg(0)),
        assign(1, c(0)),
        while_(
            b(BinOp::Lt, v(1), c(len)),
            [
                vec![
                    assign(2, loadb(add(gaddr("sw_code"), v(1)))),
                    assign(3, loadb(add(gaddr("sw_code"), add(v(1), c(1))))),
                ],
                dispatch,
                vec![assign(1, add(v(1), c(2)))],
            ]
            .concat(),
        ),
    ];
    body.push(ret(v(0)));
    let main = func("switch_main", 1, 4, body);
    let program = Program {
        functions: vec![main],
        globals: vec![Global { name: "sw_code".into(), bytes: code }],
    };
    self_referential(
        ClassId::AdversarialDepth,
        Workload {
            name: "depth-switch".into(),
            program,
            entry: "switch_main".into(),
            args: vec![0x17],
            obfuscate: vec!["switch_main".into()],
        },
    )
}

// --- adversarial-icache ----------------------------------------------------

fn adversarial_icache(seed: u64) -> Vec<ClassProgram> {
    let mut rng = class_rng(ClassId::AdversarialIcache, seed);
    vec![smc_program(&mut rng, 1), smc_program(&mut rng, 2)]
}

/// Self-modifying text: `smc_cell` is `return <sentinel>` and is placed
/// *first* in function order, so its text address is invariant under any
/// obfuscation of the driver (ROP rewrites patch in place, VM passes keep
/// function order). The driver loads the patch-site address from the
/// `smc_site` global (filled in after a scan compile below), stores a fresh
/// LCG value over the `mov rax, imm64` immediate each `cadence`-th
/// iteration — bumping the page's write generation and invalidating every
/// predecoded run on it — then calls the cell and folds the returned value
/// into a checksum.
///
/// The MiniC interpreter cannot model text patching, so the reference is a
/// separate pure program replaying the same LCG/cadence schedule.
fn smc_program(rng: &mut ChaCha8Rng, cadence: i64) -> ClassProgram {
    let sentinel = 0x5EED_C0DE_0000_0000u64 | rng.gen::<u32>() as u64;
    let a = (rng.gen::<u64>() | 1) as i64;
    let bconst = rng.gen::<u64>() as i64;
    let s0 = rng.gen::<u64>() as i64;
    let iters = 8 + rng.gen_range(0..8i64);

    let cell = func("smc_cell", 0, 0, vec![ret(c(sentinel as i64))]);
    let lcg_step = assign(3, add(mul(v(3), c(a)), c(bconst)));
    let store = Stmt::Store(v(2), v(3));
    let patch: Vec<Stmt> = if cadence == 1 {
        vec![store]
    } else {
        vec![if_(b(BinOp::Eq, b(BinOp::Rem, v(1), c(cadence)), c(0)), vec![store], vec![])]
    };
    // locals: 0 = acc, 1 = i, 2 = site, 3 = lcg state
    let main = func(
        "smc_main",
        1,
        4,
        vec![
            assign(0, arg(0)),
            assign(1, c(0)),
            assign(2, load(gaddr("smc_site"))),
            assign(3, c(s0)),
            while_(
                b(BinOp::Lt, v(1), c(iters)),
                [
                    vec![lcg_step],
                    patch,
                    vec![
                        assign(0, add(mul(v(0), c(31)), call("smc_cell", vec![]))),
                        assign(1, add(v(1), c(1))),
                    ],
                ]
                .concat(),
            ),
            ret(v(0)),
        ],
    );
    let mut program = Program {
        functions: vec![cell, main],
        globals: vec![Global { name: "smc_site".into(), bytes: vec![0u8; 8] }],
    };

    // Scan compile: locate the sentinel immediate inside smc_cell's body and
    // publish its absolute text address through the global. Data bytes do
    // not move text, so the address survives the real compile — and because
    // smc_cell is the first function, it survives driver obfuscation too.
    let image = codegen::compile(&program).expect("smc scan compile");
    let cell_sym = image.function("smc_cell").expect("smc_cell exists");
    let bytes = image.function_bytes("smc_cell").expect("smc_cell bytes");
    let needle = sentinel.to_le_bytes();
    let off =
        bytes.windows(8).position(|w| w == needle).expect("sentinel immediate present in smc_cell");
    let site = cell_sym.addr + off as u64;
    program.globals[0].bytes = site.to_le_bytes().to_vec();

    // Pure reference: replay the LCG/cadence schedule without touching text.
    // `cur` mirrors the cell's current immediate; iteration 0 always stores
    // (0 % cadence == 0), so the sentinel itself is never folded in.
    let reference = func(
        "smc_ref",
        1,
        4,
        vec![
            assign(0, arg(0)),
            assign(1, c(0)),
            assign(2, c(0)), // cur
            assign(3, c(s0)),
            while_(
                b(BinOp::Lt, v(1), c(iters)),
                vec![
                    assign(3, add(mul(v(3), c(a)), c(bconst))),
                    if_(
                        b(BinOp::Eq, b(BinOp::Rem, v(1), c(cadence)), c(0)),
                        vec![assign(2, v(3))],
                        vec![],
                    ),
                    assign(0, add(mul(v(0), c(31)), v(2))),
                    assign(1, add(v(1), c(1))),
                ],
            ),
            ret(v(0)),
        ],
    );
    with_check(ClassProgram {
        class: ClassId::AdversarialIcache,
        workload: Workload {
            name: format!("smc-cadence{cadence}"),
            program,
            entry: "smc_main".into(),
            args: vec![0x63],
            obfuscate: vec!["smc_main".into()],
        },
        reference: Program { functions: vec![reference], globals: vec![] },
        ref_entry: "smc_ref".into(),
        check_entry: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::Emulator;

    fn emulated_value(cp: &ClassProgram) -> u64 {
        let image = codegen::compile(&cp.workload.program).expect("class program compiles");
        let mut emu = Emulator::new(&image);
        emu.set_budget(2_000_000_000);
        emu.call_named(&image, &cp.workload.entry, &cp.workload.args).expect("class program runs")
    }

    #[test]
    fn registry_has_five_classes_with_worst_cases_excluded() {
        let reg = registry();
        assert_eq!(reg.len(), 5);
        assert_eq!(reg.iter().filter(|s| !s.headline).count(), 2);
        for spec in &reg {
            assert_eq!(ClassId::from_name(spec.id.name()), Some(spec.id));
        }
        assert_eq!(ClassId::from_name("no-such-class"), None);
    }

    #[test]
    fn every_class_program_matches_its_reference_semantics() {
        for cp in generate_all(9) {
            let want = cp.reference_value();
            let got = emulated_value(&cp);
            assert_eq!(got, want, "{}: emulator vs reference interpreter", cp.workload.name);
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        for class in ClassId::all() {
            let a = generate(class, 5);
            let b = generate(class, 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.workload.program, y.workload.program, "{}", x.workload.name);
                assert_eq!(x.reference, y.reference);
            }
            let c = generate(class, 6);
            assert!(
                a.iter().zip(&c).any(|(x, y)| x.workload.program != y.workload.program),
                "{class:?}: a different seed must change at least one program"
            );
        }
    }

    #[test]
    fn class_arguments_stay_byte_sized_and_reference_depends_on_them() {
        for cp in generate_all(4) {
            assert!(cp.workload.args.len() == 1, "{}", cp.workload.name);
            assert!(cp.workload.args[0] < 256, "{}", cp.workload.name);
            let base = cp.reference_value();
            let other = cp.reference_value_for(cp.workload.args[0] ^ 0x55);
            assert_ne!(base, other, "{}: checksum must depend on the argument", cp.workload.name);
        }
    }

    #[test]
    fn smc_programs_patch_text_and_invalidate_the_icache() {
        let cps = generate(ClassId::AdversarialIcache, 3);
        assert_eq!(cps.len(), 2);
        for cp in &cps {
            let image = codegen::compile(&cp.workload.program).unwrap();
            let site = u64::from_le_bytes(
                cp.workload.program.globals[0].bytes.as_slice().try_into().unwrap(),
            );
            let cell = image.function("smc_cell").unwrap();
            assert!(
                site > cell.addr && site < cell.addr + cell.size,
                "{}: patch site inside smc_cell text",
                cp.workload.name
            );
            // The run must agree between icache'd and icache-less modes even
            // though it rewrites text mid-loop.
            let run = |icache: bool| {
                let mut emu = Emulator::new(&image);
                emu.set_icache_enabled(icache);
                emu.call_named(&image, &cp.workload.entry, &cp.workload.args).unwrap()
            };
            assert_eq!(run(true), run(false), "{}", cp.workload.name);
            assert_eq!(run(true), cp.reference_value(), "{}", cp.workload.name);
        }
    }

    #[test]
    fn check_wrappers_point_test_the_canonical_argument() {
        for cp in generate_all(6) {
            let image = codegen::compile(&cp.workload.program).expect("compiles with wrapper");
            let mut emu = Emulator::new(&image);
            emu.set_budget(2_000_000_000);
            let hit = emu.call_named(&image, &cp.check_entry, &cp.workload.args).unwrap();
            assert_eq!(hit, 1, "{}: canonical argument passes the point test", cp.workload.name);
            let miss =
                emu.call_named(&image, &cp.check_entry, &[cp.workload.args[0] ^ 0x55]).unwrap();
            assert_eq!(miss, 0, "{}: a different argument fails it", cp.workload.name);
        }
    }

    #[test]
    fn database_programs_allocate_guest_heap() {
        for cp in generate(ClassId::Database, 2) {
            let image = codegen::compile(&cp.workload.program).unwrap();
            let mut emu = Emulator::new(&image);
            emu.call_named(&image, &cp.workload.entry, &cp.workload.args).unwrap();
            let heap_ptr = image.symbol("__heap_ptr").unwrap();
            assert!(
                emu.mem.read_u64(heap_ptr) > raindrop_machine::HEAP_BASE,
                "{}: allocations happened",
                cp.workload.name
            );
        }
    }

    #[test]
    fn depth_recursion_recurses_deep_but_below_the_interp_limit() {
        for cp in generate(ClassId::AdversarialDepth, 7) {
            if cp.workload.name != "depth-recursion" {
                continue;
            }
            let image = codegen::compile(&cp.workload.program).unwrap();
            let mut emu = Emulator::new(&image);
            emu.call_named(&image, &cp.workload.entry, &cp.workload.args).unwrap();
            assert!(emu.stats().calls >= 100, "deep recursion performs >= 100 calls");
        }
    }
}
