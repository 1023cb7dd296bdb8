//! Integration tests over the binary analyses the rewriter relies on:
//! CFG reconstruction (including diamonds, loops and switch tables),
//! liveness and the input-derived (symbolic-register) dataflow.

use proptest::prelude::*;
use raindrop_analysis::{cfg, dataflow, liveness, ArgSummary, BlockId, Terminator};
use raindrop_machine::{AluOp, Assembler, Cond, Image, ImageBuilder, Inst, Mem, Reg, RegSet};

/// Builds a single-function image.
fn image_of(build: impl FnOnce(&mut Assembler)) -> Image {
    let mut asm = Assembler::new();
    build(&mut asm);
    let mut b = ImageBuilder::new();
    b.add_function("f", asm);
    b.build().unwrap()
}

/// A diamond: entry → (then | else) → join → ret.
fn diamond(asm: &mut Assembler) {
    let else_l = asm.new_label();
    let join = asm.new_label();
    asm.inst(Inst::Cmp(Reg::Rdi, Reg::Rsi));
    asm.jcc(Cond::Be, else_l);
    asm.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
    asm.jmp(join);
    asm.bind(else_l);
    asm.inst(Inst::MovRR(Reg::Rax, Reg::Rsi));
    asm.bind(join);
    asm.inst(Inst::AluI(AluOp::Add, Reg::Rax, 1));
    asm.inst(Inst::Ret);
}

/// A counted loop: rax = sum(0..rdi).
fn counted_loop(asm: &mut Assembler) {
    let head = asm.new_label();
    let done = asm.new_label();
    asm.inst(Inst::MovRI(Reg::Rax, 0));
    asm.inst(Inst::MovRI(Reg::Rcx, 0));
    asm.bind(head);
    asm.inst(Inst::Cmp(Reg::Rcx, Reg::Rdi));
    asm.jcc(Cond::Ae, done);
    asm.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx));
    asm.inst(Inst::AluI(AluOp::Add, Reg::Rcx, 1));
    asm.jmp(head);
    asm.bind(done);
    asm.inst(Inst::Ret);
}

// --- CFG reconstruction -------------------------------------------------------

#[test]
fn straight_line_code_is_a_single_block() {
    let img = image_of(|a| {
        a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi))
            .inst(Inst::AluI(AluOp::Add, Reg::Rax, 3))
            .inst(Inst::Ret);
    });
    let g = cfg::reconstruct(&img, "f").unwrap();
    assert_eq!(g.len(), 1);
    assert_eq!(g.block(g.entry()).term, Terminator::Return);
    assert_eq!(g.inst_count(), 3);
    assert_eq!(g.branch_count(), 0);
}

#[test]
fn diamond_produces_four_blocks_with_a_conditional_entry() {
    let img = image_of(diamond);
    let g = cfg::reconstruct(&img, "f").unwrap();
    assert_eq!(g.len(), 4, "entry, then, else, join");
    match &g.block(g.entry()).term {
        Terminator::Branch { taken, fallthrough } => assert_ne!(taken, fallthrough),
        t => panic!("entry should end in a conditional branch, got {t:?}"),
    }
    // Exactly one block returns.
    let returns = g.blocks.iter().filter(|b| b.term == Terminator::Return).count();
    assert_eq!(returns, 1);
    assert_eq!(g.branch_count(), 1, "one conditional branch site");
}

#[test]
fn loop_back_edges_are_recovered() {
    let img = image_of(counted_loop);
    let g = cfg::reconstruct(&img, "f").unwrap();
    // Some block must have a successor with a lower or equal id (the back
    // edge to the loop head).
    let has_back_edge =
        g.blocks.iter().any(|b| b.term.successors().iter().any(|s| g.block(*s).start <= b.start));
    assert!(has_back_edge, "loop produces a back edge");
    let preds = g.predecessors();
    // The loop head has two predecessors: entry and the latch.
    assert!(preds.iter().any(|p| p.len() >= 2));
}

#[test]
fn every_successor_id_is_a_valid_block() {
    for builder in [diamond as fn(&mut Assembler), counted_loop] {
        let img = image_of(builder);
        let g = cfg::reconstruct(&img, "f").unwrap();
        for b in &g.blocks {
            for s in b.term.successors() {
                assert!(s.0 < g.len(), "successor {s} of {} out of range", b.id);
            }
        }
    }
}

#[test]
fn blocks_partition_the_function_body() {
    let img = image_of(diamond);
    let g = cfg::reconstruct(&img, "f").unwrap();
    let func = img.function("f").unwrap();
    let mut covered: Vec<(u64, u64)> = g.blocks.iter().map(|b| (b.start, b.end())).collect();
    covered.sort_unstable();
    // No overlaps, and the union covers [addr, addr+size).
    for w in covered.windows(2) {
        assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
    }
    assert_eq!(covered.first().unwrap().0, func.addr);
    assert_eq!(covered.last().unwrap().1, func.addr + func.size);
}

#[test]
fn reverse_post_order_visits_every_block_once_entry_first() {
    let img = image_of(diamond);
    let g = cfg::reconstruct(&img, "f").unwrap();
    let rpo = g.reverse_post_order();
    assert_eq!(rpo.len(), g.len());
    assert_eq!(rpo[0], g.entry());
    let mut sorted = rpo.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), g.len(), "no duplicates");
}

#[test]
fn switch_tables_are_recovered_as_switch_terminators() {
    // A compiler-shaped jump-table dispatch: `jmp [table + idx*8]` over four
    // case blocks, with the table reserved in `.data` before layout and
    // patched with the resolved case addresses afterwards.
    let mut b = ImageBuilder::new();
    let table_addr = b.add_data("jump_table", &[0u8; 32]);
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRR(Reg::Rcx, Reg::Rdi));
    asm.inst(Inst::JmpMem(Mem {
        base: None,
        index: Some(Reg::Rcx),
        scale: 8,
        disp: table_addr as i32,
    }));
    for (i, v) in [100i64, 200, 300, 400].iter().enumerate() {
        let l = asm.new_label();
        asm.bind(l);
        asm.inst(Inst::MovRI(Reg::Rax, *v + i as i64));
        asm.inst(Inst::Ret);
    }
    b.add_function("f", asm);
    let mut img = b.build().unwrap();
    let func = img.function("f").unwrap().clone();

    // Patch the table with the four case addresses.
    let code = cfg::decode_function(&img, "f").unwrap();
    let case_addrs: Vec<u64> = code
        .insts
        .iter()
        .filter(|(_, i)| matches!(i, Inst::MovRI(Reg::Rax, _)))
        .map(|(a, _)| *a)
        .collect();
    assert_eq!(case_addrs.len(), 4);
    let mut table = Vec::new();
    for a in &case_addrs {
        table.extend_from_slice(&a.to_le_bytes());
    }
    let off = (table_addr - img.data_base) as usize;
    img.data[off..off + 32].copy_from_slice(&table);

    let g = cfg::reconstruct(&img, "f").unwrap();
    let entry_term = &g.block(g.entry()).term;
    match entry_term {
        Terminator::Switch { targets, table_addr: t } => {
            assert_eq!(*t, table_addr);
            assert_eq!(targets.len(), 4, "four distinct case targets");
            // Every target block starts at one of the patched case addresses.
            for target in targets {
                assert!(case_addrs.contains(&g.block(*target).start));
            }
        }
        other => panic!("expected a switch terminator, got {other:?}"),
    }
    assert!(func.size > 0);
}

#[test]
fn unknown_functions_are_reported() {
    let img = image_of(|a| {
        a.inst(Inst::Ret);
    });
    assert!(cfg::reconstruct(&img, "missing").is_err());
}

// --- liveness ------------------------------------------------------------------

#[test]
fn arguments_read_on_entry_are_live_in() {
    let img = image_of(diamond);
    let g = cfg::reconstruct(&img, "f").unwrap();
    let live = liveness::analyze(&g, &ArgSummary::default());
    let entry_in = live.live_in[g.entry().0];
    assert!(entry_in.contains(Reg::Rdi));
    assert!(entry_in.contains(Reg::Rsi));
}

#[test]
fn dead_registers_are_not_live_in() {
    let img = image_of(|a| {
        a.inst(Inst::MovRI(Reg::Rax, 7)).inst(Inst::MovRR(Reg::Rbx, Reg::Rax)).inst(Inst::Ret);
    });
    let g = cfg::reconstruct(&img, "f").unwrap();
    let live = liveness::analyze(&g, &ArgSummary::default());
    // rax is defined before use, so it is not live on entry; rdi is unused.
    assert!(!live.live_in[0].contains(Reg::Rax));
    assert!(!live.live_in[0].contains(Reg::Rdi));
}

#[test]
fn flags_are_live_between_compare_and_branch_only() {
    let img = image_of(diamond);
    let g = cfg::reconstruct(&img, "f").unwrap();
    let live = liveness::analyze(&g, &ArgSummary::default());
    let entry = g.entry().0;
    let insts = &g.block(g.entry()).insts;
    // Find the cmp: flags are live right after it (the jcc still reads them).
    let cmp_idx = insts.iter().position(|(_, i)| matches!(i, Inst::Cmp(..))).unwrap();
    assert!(live.flags_live_after[entry][cmp_idx]);
    // After the jcc itself nothing reads flags anymore.
    let jcc_idx = insts.iter().position(|(_, i)| matches!(i, Inst::Jcc(..))).unwrap();
    assert!(!live.flags_live_after[entry][jcc_idx]);
}

#[test]
fn liveness_is_a_sound_fixpoint() {
    // For every block: live_in ⊇ (uses before defs) and
    // live_out = ∪ successor live_in.
    for builder in [diamond as fn(&mut Assembler), counted_loop] {
        let img = image_of(builder);
        let g = cfg::reconstruct(&img, "f").unwrap();
        let live = liveness::analyze(&g, &ArgSummary::default());
        for b in &g.blocks {
            let mut expected_out = RegSet::EMPTY;
            for s in b.term.successors() {
                expected_out = expected_out.union(live.live_in[s.0]);
            }
            if !b.term.successors().is_empty() {
                assert_eq!(live.live_out[b.id.0], expected_out, "block {}", b.id);
            }
            // Last-instruction live_after equals block live_out.
            if let Some(last) = live.live_after[b.id.0].last() {
                assert_eq!(*last, live.live_out[b.id.0]);
            }
        }
    }
}

#[test]
fn calls_clobber_caller_saved_registers_in_use_def() {
    let call = Inst::Call(0);
    let (uses, defs) = liveness::use_def(&call, ArgSummary::default().call_reads(0, &call));
    for r in Reg::ARGS {
        assert!(uses.contains(r), "calls read argument register {r:?}");
    }
    for r in Reg::CALLER_SAVED {
        assert!(defs.contains(r), "calls clobber caller-saved {r:?}");
    }
    for r in Reg::CALLEE_SAVED {
        assert!(!defs.contains(r), "calls preserve callee-saved {r:?}");
    }
}

#[test]
fn exit_live_set_contains_the_return_value_and_callee_saved() {
    let s = liveness::exit_live_set();
    assert!(s.contains(Reg::Rax));
    assert!(s.contains(Reg::Rsp));
    for r in Reg::CALLEE_SAVED {
        assert!(s.contains(r));
    }
    assert!(!s.contains(Reg::R10));
}

// --- input-derived registers ------------------------------------------------------

#[test]
fn arguments_start_out_derived_and_constants_do_not() {
    let img = image_of(|a| {
        a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi)) // rax derived
            .inst(Inst::MovRI(Reg::Rbx, 42)) // rbx not derived
            .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rbx))
            .inst(Inst::Ret);
    });
    let g = cfg::reconstruct(&img, "f").unwrap();
    let derived = dataflow::input_derived(&g, RegSet::from_regs(Reg::ARGS));
    let before_ret = derived.before[0].last().copied().unwrap();
    assert!(before_ret.contains(Reg::Rax));
    assert!(!before_ret.contains(Reg::Rbx));
}

#[test]
fn overwriting_with_a_constant_kills_the_derived_status() {
    let img = image_of(|a| {
        a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi)).inst(Inst::MovRI(Reg::Rax, 0)).inst(Inst::Ret);
    });
    let g = cfg::reconstruct(&img, "f").unwrap();
    let derived = dataflow::input_derived(&g, RegSet::from_regs(Reg::ARGS));
    let before_ret = derived.before[0].last().copied().unwrap();
    assert!(!before_ret.contains(Reg::Rax));
}

#[test]
fn table_lookups_keyed_on_the_input_stay_derived() {
    let mut b = ImageBuilder::new();
    let mut asm = Assembler::new();
    asm.lea_sym(Reg::Rcx, "table", 0);
    asm.inst(Inst::Load(Reg::Rax, Mem::base_index(Reg::Rcx, Reg::Rdi, 8, 0)));
    asm.inst(Inst::Ret);
    b.add_function("f", asm);
    b.add_data("table", &[0u8; 64]);
    let img2 = b.build().unwrap();
    let g = cfg::reconstruct(&img2, "f").unwrap();
    let derived = dataflow::input_derived(&g, RegSet::from_regs(Reg::ARGS));
    let before_ret = derived.before[0].last().copied().unwrap();
    assert!(before_ret.contains(Reg::Rax), "input-indexed load result is derived");
    assert!(!before_ret.contains(Reg::Rcx), "the table base itself is not derived");
}

#[test]
fn derived_status_merges_over_joins() {
    // One arm copies the input into rax, the other loads a constant: the
    // join must conservatively treat rax as derived.
    let img = image_of(|a| {
        let else_l = a.new_label();
        let join = a.new_label();
        a.inst(Inst::TestI(Reg::Rdi, -1));
        a.jcc(Cond::E, else_l);
        a.inst(Inst::MovRR(Reg::Rax, Reg::Rdi));
        a.jmp(join);
        a.bind(else_l);
        a.inst(Inst::MovRI(Reg::Rax, 3));
        a.bind(join);
        a.inst(Inst::AluI(AluOp::Add, Reg::Rax, 1));
        a.inst(Inst::Ret);
    });
    let g = cfg::reconstruct(&img, "f").unwrap();
    let derived = dataflow::input_derived(&g, RegSet::from_regs(Reg::ARGS));
    // Find the join block (the one ending in Return).
    let join = g.blocks.iter().find(|b| b.term == Terminator::Return).unwrap();
    assert!(derived.at_entry[join.id.0].contains(Reg::Rax));
}

// --- property tests: random (reducible) control flow ---------------------------------

/// Generates a nest of diamonds and loops with straight-line filler, then
/// checks structural CFG / liveness / dominator invariants.
fn arbitrary_structured_function() -> impl Strategy<Value = Vec<u8>> {
    // A compact "shape script": each byte decides diamond / loop / filler.
    prop::collection::vec(any::<u8>(), 1..12)
}

fn build_from_script(script: &[u8]) -> Image {
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRI(Reg::Rax, 1));
    for (i, b) in script.iter().enumerate() {
        match b % 3 {
            0 => {
                // diamond
                let else_l = asm.new_label();
                let join = asm.new_label();
                asm.inst(Inst::CmpI(Reg::Rdi, (*b as i32) + i as i32));
                asm.jcc(Cond::G, else_l);
                asm.inst(Inst::AluI(AluOp::Add, Reg::Rax, 1));
                asm.jmp(join);
                asm.bind(else_l);
                asm.inst(Inst::AluI(AluOp::Xor, Reg::Rax, 0x21));
                asm.bind(join);
            }
            1 => {
                // small counted loop on rcx
                let head = asm.new_label();
                let done = asm.new_label();
                asm.inst(Inst::MovRI(Reg::Rcx, (*b % 7) as i64));
                asm.bind(head);
                asm.inst(Inst::TestI(Reg::Rcx, -1));
                asm.jcc(Cond::E, done);
                asm.inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx));
                asm.inst(Inst::AluI(AluOp::Sub, Reg::Rcx, 1));
                asm.jmp(head);
                asm.bind(done);
            }
            _ => {
                asm.inst(Inst::MulI(Reg::Rax, Reg::Rax, 3));
                asm.inst(Inst::AluI(AluOp::Add, Reg::Rax, *b as i32));
            }
        }
    }
    asm.inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("f", asm);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structural_invariants_hold_on_arbitrary_structured_code(script in arbitrary_structured_function()) {
        let img = build_from_script(&script);
        let g = cfg::reconstruct(&img, "f").unwrap();

        // 1. Every successor is valid and every non-entry block is reachable.
        let mut reachable = vec![false; g.len()];
        let mut stack = vec![g.entry()];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b.0], true) {
                continue;
            }
            for s in g.block(b).term.successors() {
                prop_assert!(s.0 < g.len());
                stack.push(s);
            }
        }
        prop_assert!(reachable.iter().all(|r| *r), "all blocks reachable");

        // 2. Reverse post-order is a permutation starting at the entry.
        let rpo = g.reverse_post_order();
        prop_assert_eq!(rpo.len(), g.len());
        prop_assert_eq!(rpo[0], g.entry());

        // 3. Liveness: live_out is the union of successor live_in.
        let live = liveness::analyze(&g, &ArgSummary::default());
        for b in &g.blocks {
            let mut expected = RegSet::EMPTY;
            for s in b.term.successors() {
                expected = expected.union(live.live_in[s.0]);
            }
            if !b.term.successors().is_empty() {
                prop_assert_eq!(live.live_out[b.id.0], expected);
            }
        }

        // 4. Input-derived registers at entry are exactly the arguments.
        let derived = dataflow::input_derived(&g, RegSet::from_regs(Reg::ARGS));
        prop_assert_eq!(derived.at_entry[g.entry().0], RegSet::from_regs(Reg::ARGS));

        // 5. Block partitioning covers the function without overlap.
        let func = img.function("f").unwrap();
        let mut spans: Vec<(u64, u64)> = g.blocks.iter().map(|b| (b.start, b.end())).collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0);
        }
        prop_assert_eq!(spans.last().unwrap().1, func.addr + func.size);
    }

    /// BlockId ordering used by DeltaTarget maps is stable under Display.
    #[test]
    fn block_id_display_is_stable(i in 0usize..10_000) {
        prop_assert_eq!(format!("{}", BlockId(i)), format!("bb{i}"));
    }
}
