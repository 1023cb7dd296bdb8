//! Every clbg kernel rewrites under the four ROP-bearing protect
//! configurations (ROP1.00, ROP0.25, ROP1.00-over-1VM, 1VM-over-ROP1.00):
//! no per-target failure and a clean static audit.
//!
//! fannkuch (`fannkuch_main` → `fk_flips()`) and n-body (`nbody_main` →
//! `nb_advance()`) call zero-argument functions. Such a call keeps no
//! argument register live, so their drivers have scratch registers to
//! spare; under ROP1.00 both also compute their MiniC reference value on
//! the emulator.

use raindrop::pipeline::{ObfConfig, VerifyPolicy};
use raindrop::RopConfig;
use raindrop_machine::Emulator;
use raindrop_obfvm::VmConfig;
use raindrop_synth::interp::Interp;

#[test]
fn every_clbg_kernel_rewrites_under_every_rop_config() {
    let configs = [
        ObfConfig::new().rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(0.25)),
        ObfConfig::new().vm(VmConfig::plain(1)).rop(RopConfig::ropk(1.0)),
        ObfConfig::new().rop(RopConfig::ropk(1.0)).vm(VmConfig::plain(1)),
    ];
    for w in raindrop_synth::clbg_suite() {
        for config in &configs {
            let label = config.label();
            let run = config
                .pipeline(1)
                .verify(VerifyPolicy::Static)
                .run_program(&w.program, &w.obfuscate)
                .expect("pipeline accepts the kernel");
            let report = &run.report;
            assert!(report.failures.is_empty(), "{}/{label}: {:?}", w.name, report.failures);
            let diagnostics: Vec<_> = report.audit_diagnostics().collect();
            assert!(report.audit_clean(), "{}/{label}: {diagnostics:?}", w.name);

            if label == "ROP1.00" && ["fannkuch", "n-body"].contains(&w.name.as_str()) {
                let expected = Interp::new(&w.program).call(&w.entry, &w.args).unwrap();
                let mut emu = Emulator::new(&run.image);
                emu.set_budget(200_000_000);
                let got = emu.call_named(&run.image, &w.entry, &w.args).expect("kernel runs");
                assert_eq!(got, expected, "{}/{label} vs the MiniC reference", w.name);
            }
        }
    }
}
