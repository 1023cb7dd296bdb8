//! ROP-aware analyses: the ROPMEMU / ROPDissector attack surface (A2 / A1).
//!
//! Two tools, mirroring §III-B2 and the extensions discussed in §VII-A2:
//!
//! * [`flip_exploration`] — ROPMEMU-style dynamic multi-path exploration: run
//!   the chain, find the gadgets that leak condition flags into data
//!   (`set<cc>`/`cmov<cc>`), and re-run forcing each leak to the opposite
//!   value, hoping to reveal chain blocks the recorded input did not reach.
//!   P2's opaque RSP adjustments derail exactly these forced runs.
//! * [`gadget_guess`] — ROPDissector-style static gadget guessing over the
//!   chain bytes: treat every plausible text address as a gadget pointer and
//!   speculatively decode from it. Gadget confusion (disguised immediates +
//!   unaligned layout) buries the true positives in noise.

use raindrop_gadgets::speculative_decode;
use raindrop_machine::{EmuError, Emulator, Image, Inst, Reg, RunExit};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Result of the flag-flipping multi-path exploration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipReport {
    /// Flag-leak sites (set/cmov gadgets with live flag inputs) seen in the
    /// baseline run.
    pub leak_sites: usize,
    /// Distinct chain offsets (RSP values inside the chain) visited by the
    /// baseline run.
    pub baseline_blocks: usize,
    /// Distinct *new* chain offsets revealed by all forced runs combined.
    pub new_blocks: usize,
    /// Forced runs that derailed (decode fault / budget exhaustion) instead
    /// of producing a clean alternate trace.
    pub derailed_runs: usize,
    /// Forced runs attempted.
    pub forced_runs: usize,
}

fn chain_offsets(image: &Image, emu_trace: &[u64]) -> BTreeSet<u64> {
    emu_trace.iter().copied().filter(|rsp| image.in_data(*rsp)).collect()
}

/// Runs the chain once, recording the RSP values at every `ret`, while
/// optionally forcing the `skip`-th flag-leaking instruction to the opposite
/// outcome (by inverting the leaked value right after it is produced).
fn run_once(
    image: &Image,
    func: &str,
    input: u64,
    flip_index: Option<usize>,
    budget: u64,
) -> Result<(Vec<u64>, usize), EmuError> {
    let mut emu = Emulator::new(image);
    emu.set_budget(budget);
    let faddr = image.function(func).expect("function exists").addr;
    emu.cpu.set_reg(Reg::Rsp, raindrop_machine::STACK_TOP);
    emu.cpu.set_reg(Reg::Rdi, input);
    let sp = emu.cpu.reg(Reg::Rsp) - 8;
    emu.cpu.set_reg(Reg::Rsp, sp);
    emu.mem.write_u64(sp, raindrop_machine::RETURN_SENTINEL);
    emu.cpu.rip = faddr;

    let mut rsp_at_ret = Vec::new();
    let mut leaks_seen = 0usize;
    loop {
        // Peek to recognize flag-leaking instructions and `ret`s; the peek
        // goes through the emulator's predecoded cache, so it costs a table
        // hit rather than a re-decode.
        let inst = emu.peek_inst().map(|(i, _)| i).ok();
        if let Some(Inst::Ret) = inst {
            rsp_at_ret.push(emu.cpu.reg(Reg::Rsp));
        }
        let leak_dest = match inst {
            Some(Inst::Set(_, d)) => Some(d),
            Some(Inst::Cmov(_, d, _)) => Some(d),
            Some(Inst::Alu(raindrop_machine::AluOp::Adc, d, _)) => Some(d),
            _ => None,
        };
        let step = emu.step()?;
        if let Some(d) = leak_dest {
            let this_leak = leaks_seen;
            leaks_seen += 1;
            if flip_index == Some(this_leak) {
                // Invert the leaked boolean (ROPMEMU flips the leaked CPU
                // flag; forcing the materialized value is equivalent for the
                // chains the rewriter emits).
                let v = emu.reg(d);
                emu.set_reg(d, if v == 0 { 1 } else { 0 });
            }
        }
        match step {
            Some(RunExit::Returned(_)) | Some(RunExit::Halted) => break,
            None => {
                if emu.cpu.rip == raindrop_machine::RETURN_SENTINEL {
                    break;
                }
            }
        }
    }
    Ok((rsp_at_ret, leaks_seen))
}

/// ROPMEMU-style exploration: baseline run plus one forced run per observed
/// flag leak.
pub fn flip_exploration(image: &Image, func: &str, input: u64, budget: u64) -> FlipReport {
    let (baseline, leaks) = match run_once(image, func, input, None, budget) {
        Ok(x) => x,
        Err(_) => {
            return FlipReport {
                leak_sites: 0,
                baseline_blocks: 0,
                new_blocks: 0,
                derailed_runs: 0,
                forced_runs: 0,
            }
        }
    };
    let baseline_blocks = chain_offsets(image, &baseline);
    let mut new_blocks: BTreeSet<u64> = BTreeSet::new();
    let mut derailed = 0usize;
    let mut forced = 0usize;
    for i in 0..leaks.min(64) {
        forced += 1;
        match run_once(image, func, input, Some(i), budget) {
            Ok((trace, _)) => {
                for off in chain_offsets(image, &trace) {
                    if !baseline_blocks.contains(&off) {
                        new_blocks.insert(off);
                    }
                }
            }
            Err(_) => derailed += 1,
        }
    }
    FlipReport {
        leak_sites: leaks,
        baseline_blocks: baseline_blocks.len(),
        new_blocks: new_blocks.len(),
        derailed_runs: derailed,
        forced_runs: forced,
    }
}

/// Result of static gadget guessing over a chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuessReport {
    /// 8-byte chain strides whose value looks like a `.text` address.
    pub plausible_pointers: usize,
    /// Of those, how many decode to a clean, `ret`-terminated sequence.
    pub decodable: usize,
    /// Candidate blocks found by also trying every unaligned offset.
    pub unaligned_candidates: usize,
    /// Chain size in bytes.
    pub chain_bytes: usize,
}

/// ROPDissector-style gadget guessing over the chain stored at `chain_sym`.
pub fn gadget_guess(image: &Image, chain_sym: &str) -> GuessReport {
    let Ok(addr) = image.symbol(chain_sym) else {
        return GuessReport {
            plausible_pointers: 0,
            decodable: 0,
            unaligned_candidates: 0,
            chain_bytes: 0,
        };
    };
    // The chain extends to the next symbol or the end of .data; take a
    // generous slice.
    let start = (addr - image.data_base) as usize;
    let end = image
        .symbols
        .values()
        .copied()
        .filter(|a| image.in_data(*a) && *a > addr)
        .min()
        .map(|a| (a - image.data_base) as usize)
        .unwrap_or(image.data.len());
    let bytes = &image.data[start..end];

    let mut plausible = 0usize;
    let mut decodable = 0usize;
    for stride in bytes.chunks_exact(8) {
        let value = u64::from_le_bytes(stride.try_into().expect("8 bytes"));
        if image.in_text(value) {
            plausible += 1;
            let off = (value - image.text_base) as usize;
            let seq = speculative_decode(&image.text, off, 8);
            if seq.iter().any(|i| matches!(i, Inst::Ret)) {
                decodable += 1;
            }
        }
    }
    // Unaligned speculative execution attempts: every byte offset of the
    // chain is a potential RSP landing point under gadget confusion.
    let mut unaligned = 0usize;
    for off in 0..bytes.len().saturating_sub(8) {
        let value = u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        if image.in_text(value) && off % 8 != 0 {
            unaligned += 1;
        }
    }
    GuessReport {
        plausible_pointers: plausible,
        decodable,
        unaligned_candidates: unaligned,
        chain_bytes: bytes.len(),
    }
}

/// Convenience: chain symbol name produced by the rewriter for a function.
pub fn chain_symbol(func: &str) -> String {
    format!("__rop_chain_{func}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop::{Rewriter, RopConfig};
    use raindrop_synth::{codegen, randomfuns, Goal};

    fn obfuscated(config: RopConfig) -> (Image, String, u64) {
        let rf = randomfuns::generate(raindrop_synth::RandomFunConfig {
            structure: randomfuns::Ctrl::if_(randomfuns::Ctrl::bb(4), randomfuns::Ctrl::bb(4)),
            structure_name: "(if (bb 4) (bb 4))".into(),
            input_size: 2,
            seed: 9,
            goal: Goal::SecretFinding,
            loop_size: 3,
        });
        let mut image = codegen::compile(&rf.program).unwrap();
        let mut rw = Rewriter::new(config);
        rw.rewrite_function(&mut image, &rf.name).unwrap();
        (image, rf.name, rf.secret_input)
    }

    #[test]
    fn flipping_reveals_blocks_without_p2_but_derails_with_p2() {
        let mut no_p2 = RopConfig::plain();
        no_p2.p1 = None;
        no_p2.p2 = false;
        let (img, name, _) = obfuscated(no_p2);
        let open = flip_exploration(&img, &name, 0, 50_000_000);
        assert!(open.leak_sites > 0, "branch encoding leaks flags into data");

        let mut with_p2 = RopConfig::plain();
        with_p2.p2 = true;
        let (img2, name2, _) = obfuscated(with_p2);
        let shielded = flip_exploration(&img2, &name2, 0, 50_000_000);
        // With P2, forced runs either derail or reveal nothing beyond noise.
        assert!(
            shielded.derailed_runs > 0 || shielded.new_blocks <= open.new_blocks,
            "P2 must not make flipping *more* effective: {shielded:?} vs {open:?}"
        );
    }

    #[test]
    fn gadget_confusion_inflates_guessing_noise() {
        let mut plain = RopConfig::plain();
        plain.gadget_confusion = false;
        let (img_plain, name, _) = obfuscated(plain);
        let report_plain = gadget_guess(&img_plain, &chain_symbol(&name));
        assert!(report_plain.plausible_pointers > 0);
        assert!(report_plain.decodable > 0);

        let mut confused = RopConfig::plain();
        confused.gadget_confusion = true;
        let (img_conf, name2, _) = obfuscated(confused);
        let report_conf = gadget_guess(&img_conf, &chain_symbol(&name2));
        assert!(
            report_conf.plausible_pointers + report_conf.unaligned_candidates
                > report_plain.plausible_pointers,
            "confusion adds plausible-but-fake pointers: {report_conf:?} vs {report_plain:?}"
        );
    }

    #[test]
    fn missing_chain_symbol_yields_empty_report() {
        let (img, _, _) = obfuscated(RopConfig::plain());
        let r = gadget_guess(&img, "__rop_chain_not_there");
        assert_eq!(r.chain_bytes, 0);
        assert_eq!(r.plausible_pointers, 0);
    }
}
