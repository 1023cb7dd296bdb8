//! Adversarial self-modifying-code tests for the predecoded instruction
//! cache: under any schedule of text writes — host patches between calls,
//! host patches between single steps of a partially-executed function, or
//! guest stores into the instruction stream — an emulator with the icache
//! enabled must stay bit-identical (results, registers, statistics) to one
//! running with `set_icache_enabled(false)`.
//!
//! The hazard under test is a stale predecode: a page's instructions are
//! cached from a previous execution, the text underneath changes, and a
//! later fetch must observe the new bytes because the page's write
//! generation moved on. The synth-level workload classes exercise the same
//! property end-to-end through compiled MiniC; this suite drives the
//! emulator directly so the schedule space (patch points, values, warm-up
//! runs) can be explored property-style.

use proptest::prelude::*;
use raindrop_machine::{
    AluOp, Assembler, Emulator, Image, ImageBuilder, Inst, Mem, Reg, RunExit, RETURN_SENTINEL,
    STACK_TOP,
};

/// Immediates with distinctive byte patterns, used as needles to locate
/// their own encoding inside the emitted text.
const IMM_A: i64 = 0x5EED_0001_A0A0_0001;
const IMM_B: i64 = 0x5EED_0002_B0B0_0002;

/// Builds `f() = A + B` from two patchable `mov r, imm64` instructions and
/// returns the image plus the text addresses of both immediates.
fn patchable_image() -> (Image, u64, u64) {
    let mut asm = Assembler::new();
    asm.inst(Inst::MovRI(Reg::Rax, IMM_A))
        .inst(Inst::MovRI(Reg::Rcx, IMM_B))
        .inst(Inst::Alu(AluOp::Add, Reg::Rax, Reg::Rcx))
        .inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("f", asm);
    let img = b.build().unwrap();
    let f = img.function("f").unwrap().clone();
    let bytes = img.function_bytes("f").unwrap().to_vec();
    let find = |imm: i64| {
        let needle = imm.to_le_bytes();
        let off =
            bytes.windows(8).position(|w| w == needle).expect("immediate encoding found in text");
        f.addr + off as u64
    };
    let (a, b) = (find(IMM_A), find(IMM_B));
    (img, a, b)
}

/// Points the emulator at `addr` exactly like [`Emulator::call`] does, but
/// without running, so the test can drive execution one `step()` at a time.
fn setup_call(emu: &mut Emulator, addr: u64) {
    emu.cpu.set_reg(Reg::Rsp, STACK_TOP - 8);
    emu.mem.write_u64(STACK_TOP - 8, RETURN_SENTINEL);
    emu.cpu.rip = addr;
}

fn step_to_return(emu: &mut Emulator) -> u64 {
    loop {
        if let Some(RunExit::Returned(v)) = emu.step().expect("smc program steps") {
            return v;
        }
    }
}

/// One host-driven action against the patchable function.
#[derive(Debug, Clone)]
enum Action {
    /// Overwrite the first (`true`) or second immediate with a new value.
    Patch { first: bool, value: i64 },
    /// Call the function to completion (also warms the icache).
    Call,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<bool>(), any::<i64>()).prop_map(|(first, value)| Action::Patch { first, value }),
        Just(Action::Call),
    ]
}

/// Replays `actions` on a fresh emulator and returns every observable:
/// per-call results, final statistics and the architectural registers.
fn replay(img: &Image, site_a: u64, site_b: u64, actions: &[Action], icache: bool) -> Vec<u64> {
    let mut emu = Emulator::new(img);
    emu.set_icache_enabled(icache);
    emu.set_budget(1_000_000);
    let mut observed = Vec::new();
    for action in actions {
        match action {
            Action::Patch { first, value } => {
                let site = if *first { site_a } else { site_b };
                emu.mem.write_bytes(site, &value.to_le_bytes());
            }
            Action::Call => {
                observed.push(emu.call_named(img, "f", &[]).expect("patched call runs"));
            }
        }
    }
    let stats = emu.stats();
    observed.extend([stats.instructions, stats.cycles, stats.mem_reads, stats.mem_writes]);
    observed.extend(Reg::ALL.iter().map(|r| emu.reg(*r)));
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of host text patches and calls is bit-identical
    /// with and without the predecoded cache.
    #[test]
    fn patch_schedules_are_bit_identical_with_and_without_icache(
        actions in prop::collection::vec(action_strategy(), 1..24),
    ) {
        let (img, site_a, site_b) = patchable_image();
        let cached = replay(&img, site_a, site_b, &actions, true);
        let uncached = replay(&img, site_a, site_b, &actions, false);
        prop_assert_eq!(cached, uncached);
    }

    /// The stalest possible predecode: warm the cache with full runs, stop
    /// a new activation after its first instruction, patch the *next*
    /// instruction's immediate from the host, and finish stepping. The
    /// fetch after the patch must decode the new bytes.
    #[test]
    fn mid_execution_patches_invalidate_warm_predecodes(
        warm in 0usize..3,
        value in any::<i64>(),
    ) {
        let (img, _, site_b) = patchable_image();
        let addr = img.function("f").unwrap().addr;
        for icache in [true, false] {
            let mut emu = Emulator::new(&img);
            emu.set_icache_enabled(icache);
            emu.set_budget(1_000_000);
            for _ in 0..warm {
                let v = emu.call_named(&img, "f", &[]).unwrap();
                prop_assert_eq!(v, (IMM_A as u64).wrapping_add(IMM_B as u64));
            }
            setup_call(&mut emu, addr);
            emu.step().expect("first mov executes");
            emu.mem.write_bytes(site_b, &value.to_le_bytes());
            let got = step_to_return(&mut emu);
            prop_assert_eq!(
                got,
                (IMM_A as u64).wrapping_add(value as u64),
                "icache={} warm={}: stale immediate survived the patch",
                icache,
                warm
            );
        }
    }
}

/// A function that stores into its *own* instruction stream and falls
/// through into the patched instruction: the guest-store analogue of the
/// host-patch properties, with zero instructions between the write and the
/// fetch it must invalidate.
#[test]
fn guest_store_into_own_text_takes_effect_on_the_very_next_fetch() {
    let mut asm = Assembler::new();
    // rax <- IMM_A; text[site of IMM_A's low bytes] <- rdi (arg 0, as a
    // 64-bit store over the whole immediate); rax <- IMM_A (now patched).
    asm.inst(Inst::MovRI(Reg::Rax, IMM_A))
        .inst(Inst::MovRI(Reg::Rcx, 0)) // placeholder for the site address
        .inst(Inst::Store(Mem::base(Reg::Rcx), Reg::Rdi))
        .inst(Inst::MovRI(Reg::Rax, IMM_A))
        .inst(Inst::Ret);
    let mut b = ImageBuilder::new();
    b.add_function("g", asm);
    let mut img = b.build().unwrap();
    let g = img.function("g").unwrap().clone();
    let bytes = img.function_bytes("g").unwrap().to_vec();
    let needle = IMM_A.to_le_bytes();
    // The *second* occurrence of the immediate is the one executed after
    // the store.
    let first = bytes.windows(8).position(|w| w == needle).unwrap();
    let second = first + 8 + bytes[first + 8..].windows(8).position(|w| w == needle).unwrap();
    let target = g.addr + second as u64;
    // Patch the placeholder `mov rcx, 0` with the site address.
    let placeholder = 0i64.to_le_bytes();
    let ph_off = bytes.windows(8).position(|w| w == placeholder).unwrap();
    img.patch_text(g.addr + ph_off as u64, &(target as i64).to_le_bytes()).unwrap();

    let mut stats = Vec::new();
    for icache in [true, false] {
        let mut emu = Emulator::new(&img);
        emu.set_icache_enabled(icache);
        emu.set_budget(1_000_000);
        // First call warms every predecode slot, second call re-executes
        // over text the first call rewrote.
        let v1 = emu.call_named(&img, "g", &[0x1111_2222_3333_4444]).unwrap();
        assert_eq!(v1, 0x1111_2222_3333_4444, "icache={icache}: first run sees its own store");
        let v2 = emu.call_named(&img, "g", &[0x5555_6666_7777_8888]).unwrap();
        assert_eq!(v2, 0x5555_6666_7777_8888, "icache={icache}: warm rerun sees the new store");
        stats.push(emu.stats());
    }
    // The store lands inside a cached run; leaving the run there must not
    // change what is counted.
    assert_eq!(stats[0], stats[1], "ExecStats differ with the icache on and off");
}
