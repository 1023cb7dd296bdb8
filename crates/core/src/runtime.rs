//! The ROP runtime: stack-switching array, pivot stubs and the
//! function-return gadget (§IV-A3, §IV-B and Appendix A of the paper).
//!
//! Rewritten functions keep the original program's *native* stack behaviour:
//! the chain lives in `.data` and a per-image stack-switching array `ss`
//! mediates every transition between the ROP domain and the native domain.
//! `ss[0]` holds the byte offset of the slot of the innermost active ROP
//! call, so the current `other_rsp` is always `*(ss + *ss)`; this supports
//! recursion and arbitrary interleavings of ROP and native calls.

use crate::config::RopConfig;
use raindrop_machine::{encode_all, AluOp, Image, Inst, Mem, Reg};

/// Symbol name of the stack-switching array.
pub const SS_SYMBOL: &str = "__rop_ss";
/// Symbol name of the function-return gadget.
pub const FUNC_RET_SYMBOL: &str = "__rop_func_ret";

/// Per-image runtime support installed once before rewriting any function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RopRuntime {
    /// Address of the stack-switching array `ss`.
    pub ss_addr: u64,
    /// Address of the function-return gadget used to resume a chain after a
    /// native call returns.
    pub func_ret_gadget: u64,
}

impl RopRuntime {
    /// Installs the runtime into the image (idempotent: reuses the existing
    /// symbols when already present).
    pub fn install(image: &mut Image, config: &RopConfig) -> RopRuntime {
        let ss_addr = match image.symbol(SS_SYMBOL) {
            Ok(a) => a,
            Err(_) => {
                let size = (config.max_rop_depth + 1) * 8;
                image.append_data(Some(SS_SYMBOL), &vec![0u8; size])
            }
        };
        let func_ret_gadget = match image.symbol(FUNC_RET_SYMBOL) {
            Ok(a) => a,
            Err(_) => {
                let bytes = func_ret_gadget_bytes(ss_addr);
                image.append_text(Some(FUNC_RET_SYMBOL), &bytes)
            }
        };
        RopRuntime { ss_addr, func_ret_gadget }
    }

    /// The native pivot stub that replaces a rewritten function's body
    /// (Appendix A, "From Native to ROP and Back"). It:
    ///
    /// 1. reserves a new `other_rsp` entry in `ss`,
    /// 2. saves the native `rsp` there,
    /// 3. loads the chain address into `rsp` and `ret`s into the first
    ///    gadget.
    ///
    /// Only the caller-saved scratch registers `r11` and `r10` are clobbered.
    pub fn pivot_stub(&self, chain_addr: u64) -> Vec<u8> {
        encode_all(&pivot_stub_insts(self.ss_addr, chain_addr))
    }

    /// Size in bytes of the pivot stub (functions shorter than this cannot
    /// be rewritten in place, mirroring the 22-byte threshold of the paper).
    pub fn pivot_stub_len() -> u64 {
        encode_all(&pivot_stub_insts(0, 0)).len() as u64
    }
}

fn pivot_stub_insts(ss_addr: u64, chain_addr: u64) -> Vec<Inst> {
    vec![
        // r11 = &ss
        Inst::MovRI(Reg::R11, ss_addr as i64),
        // ss[0] += 8  (reserve the new other_rsp slot)
        Inst::MovRI(Reg::R10, 8),
        Inst::AluStore(AluOp::Add, Mem::base(Reg::R11), Reg::R10),
        // r11 = ss + ss[0]  (address of the new slot)
        Inst::AluM(AluOp::Add, Reg::R11, Mem::base(Reg::R11)),
        // *r11 = rsp  (save the native stack pointer as other_rsp)
        Inst::Store(Mem::base(Reg::R11), Reg::Rsp),
        // rsp = chain; ret pops the first gadget address
        Inst::MovRI(Reg::Rsp, chain_addr as i64),
        Inst::Ret,
    ]
}

/// The function-return gadget: a synthetic gadget with the `ss` address
/// hard-wired, installed once per image. A native callee returns *to* this
/// gadget; it swaps `rsp` and `other_rsp` again so the chain resumes.
fn func_ret_gadget_bytes(ss_addr: u64) -> Vec<u8> {
    encode_all(&[
        Inst::MovRI(Reg::R11, ss_addr as i64),
        Inst::AluM(AluOp::Add, Reg::R11, Mem::base(Reg::R11)),
        Inst::XchgRM(Reg::Rsp, Mem::base(Reg::R11)),
        Inst::Ret,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_machine::{Assembler, Emulator, ImageBuilder, RunExit, STACK_TOP};

    fn base_image() -> Image {
        let mut a = Assembler::new();
        a.inst(Inst::MovRI(Reg::Rax, 1)).inst(Inst::Ret);
        let mut b = ImageBuilder::new();
        b.add_function("f", a);
        b.build().unwrap()
    }

    #[test]
    fn install_is_idempotent() {
        let mut img = base_image();
        let cfg = RopConfig::default();
        let rt1 = RopRuntime::install(&mut img, &cfg);
        let size_after_first = img.size();
        let rt2 = RopRuntime::install(&mut img, &cfg);
        assert_eq!(rt1, rt2);
        assert_eq!(img.size(), size_after_first, "second install adds nothing");
        assert!(img.in_data(rt1.ss_addr));
        assert!(img.in_text(rt1.func_ret_gadget));
    }

    #[test]
    fn pivot_stub_enters_a_chain_and_func_ret_gadget_resumes_native_flow() {
        // Build a minimal hand-made chain: [pop rax][42][unpivot...] and
        // check that calling the stub returns 42 with a balanced ss array.
        let mut img = base_image();
        let rt = RopRuntime::install(&mut img, &RopConfig::default());

        // Gadgets needed by the chain.
        let pop_rax = img.append_text(None, &encode_all(&[Inst::Pop(Reg::Rax), Inst::Ret]));
        let pop_r11 = img.append_text(None, &encode_all(&[Inst::Pop(Reg::R11), Inst::Ret]));
        let pop_r10 = img.append_text(None, &encode_all(&[Inst::Pop(Reg::R10), Inst::Ret]));
        let sub_store = img.append_text(
            None,
            &encode_all(&[Inst::AluStore(AluOp::Sub, Mem::base(Reg::R11), Reg::R10), Inst::Ret]),
        );
        let add_load = img.append_text(
            None,
            &encode_all(&[Inst::AluM(AluOp::Add, Reg::R11, Mem::base(Reg::R11)), Inst::Ret]),
        );
        let add_r11_r10 = img.append_text(
            None,
            &encode_all(&[Inst::Alu(AluOp::Add, Reg::R11, Reg::R10), Inst::Ret]),
        );
        let load_rsp = img.append_text(
            None,
            &encode_all(&[Inst::Load(Reg::Rsp, Mem::base(Reg::R11)), Inst::Ret]),
        );

        // Chain: pop rax, 42 = return value; then the unpivot sequence of
        // Appendix A: ss[0] -= 8; r11 = ss + ss[0] + 8; rsp = [r11]; ret.
        let mut chain = Vec::new();
        for v in [
            pop_rax,
            42,
            pop_r11,
            rt.ss_addr,
            pop_r10,
            8,
            sub_store,
            add_load,
            add_r11_r10,
            load_rsp,
        ] {
            chain.extend_from_slice(&v.to_le_bytes());
        }
        let chain_addr = img.append_data(Some("chain_f"), &chain);

        // Replace f's body with the pivot stub.
        let stub = rt.pivot_stub(chain_addr);
        let f_addr = img.function("f").unwrap().addr;
        // f is too small to hold the stub in place, so append a new entry
        // point instead (the rewriter proper checks sizes; this test only
        // exercises the runtime protocol).
        let entry = img.append_text(Some("f_rop"), &stub);

        let mut emu = Emulator::new(&img);
        let _ = f_addr;
        let ret = emu.call(entry, &[]).unwrap();
        assert_eq!(ret, 42);
        assert_eq!(emu.mem.read_u64(rt.ss_addr), 0, "ss count balanced after return");
        assert_eq!(emu.reg(Reg::Rsp), STACK_TOP, "native stack pointer restored");
    }

    #[test]
    fn func_ret_gadget_swaps_stacks() {
        // Simulate the state right after a native callee returned into the
        // function-return gadget: ss[0] = 8, ss[1] = chain resumption point.
        let mut img = base_image();
        let rt = RopRuntime::install(&mut img, &RopConfig::default());
        let pop_rax = img.append_text(None, &encode_all(&[Inst::Pop(Reg::Rax), Inst::Ret]));
        let hlt = img.append_text(None, &encode_all(&[Inst::Hlt]));
        let mut chain = Vec::new();
        for v in [pop_rax, 7u64, hlt] {
            chain.extend_from_slice(&v.to_le_bytes());
        }
        let chain_addr = img.append_data(None, &chain);

        let mut emu = Emulator::new(&img);
        emu.mem.write_u64(rt.ss_addr, 8);
        emu.mem.write_u64(rt.ss_addr + 8, chain_addr);
        // Native stack: pretend we are a callee about to return into the
        // function-return gadget.
        let sp = STACK_TOP - 64;
        emu.set_reg(Reg::Rsp, sp);
        emu.mem.write_u64(sp, rt.func_ret_gadget);
        emu.cpu.rip = img.symbol(FUNC_RET_SYMBOL).unwrap();
        // Execute the gadget directly (skip the ret that would lead here).
        let exit = emu.run().unwrap();
        assert_eq!(exit, RunExit::Halted);
        assert_eq!(emu.reg(Reg::Rax), 7, "chain resumed and popped its slot");
        assert_eq!(emu.mem.read_u64(rt.ss_addr + 8), sp, "other_rsp now holds the native rsp");
    }
}
