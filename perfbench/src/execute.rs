//! The executor's workload: protected images, built during set-up, are run
//! on the emulator and every return value is checked against the MiniC
//! reference interpreter. This is Fig. 5's quantity; the `machine` layer
//! does nearly all the work and the pipeline none.
//!
//! Three image families:
//! * `ROP1.00` on the clbg kernels that protect (b-trees, sp-norm) — chain
//!   dispatch;
//! * `1VM-IMPall` on fannkuch, n-body, pidigits and rev-comp — interpreter
//!   dispatch;
//! * `2VM-IMPlast` on class programs that finish (stress-s0-0,
//!   depth-recursion, smc-cadence1; the last also invalidates the icache).
//!   The clbg kernels are not used under 2VM: each needs more than 2×10⁸
//!   guest instructions there (b-trees exceeds 2×10¹⁰).

use crate::speed::Speed;
use crate::util::{
    alternate, geomean, median, ms, num, obj, text, timed_setup, write_spans, Outcome, Rng, Tracer,
};
use crate::Args;
use raindrop_bench::ObfKind;
use raindrop_machine::{EmuError, Emulator, Image, Snapshot};
use raindrop_obfvm::ImplicitAt;
use raindrop_synth::{classes, codegen, Interp, Workload};
use serde::Value;
use std::time::{Duration, Instant};

/// Timed runs of every image at least, however short the window.
const MIN_RUNS: usize = 3;
/// Instruction cap of one image run; a run beyond it counts as failed.
const EXEC_CAP: u64 = 400_000_000;
/// Corpus seed of the class programs (the one `exp_workloads` reports).
const CORPUS_SEED: u64 = 1;
/// Protection seed of every image.
const PROTECTION_SEED: u64 = 1;
/// Step budget of the MiniC reference interpreter.
const REFERENCE_BUDGET: u64 = 2_000_000_000;

/// One protected image and its reference.
struct ExecImage {
    name: String,
    /// Dispatch family, for per-layer MIPS: `rop`, `vm1`, `vm2` or `smc`.
    family: &'static str,
    config: String,
    image: Image,
    entry: String,
    args: Vec<u64>,
    reference: u64,
    native_size: usize,
    native_cycles: u64,
}

/// Pipeline and reference costs of one set-up, read from the reports.
#[derive(Default)]
struct SetupCosts {
    compile_ms: f64,
    rop_pass_ms: f64,
    vm_pass_ms: f64,
}

fn build(
    w: &Workload,
    kind: &ObfKind,
    family: &'static str,
    reference: impl FnOnce() -> Result<u64, String>,
    seed: u64,
    tr: &mut Tracer,
    costs: &mut SetupCosts,
) -> Result<ExecImage, String> {
    let run = kind
        .pipeline(seed)
        .run_program(&w.program, &w.obfuscate)
        .map_err(|e| format!("{}: {e}", w.name))?;
    costs.compile_ms += ms(run.report.compile_wall);
    for pass in &run.report.passes {
        if pass.rop().is_some() {
            costs.rop_pass_ms += ms(pass.wall);
        } else if pass.vm().is_some() {
            costs.vm_pass_ms += ms(pass.wall);
        }
    }
    let (image, _) = run.into_strict().map_err(|e| format!("{}: {e}", w.name))?;
    let reference = tr.time("synth.reference", 0, |_| reference())?;
    let native = codegen::compile(&w.program).map_err(|e| format!("{}: {e}", w.name))?;
    let mut emu = Emulator::new(&native);
    emu.set_budget(EXEC_CAP);
    let got = emu.call_named(&native, &w.entry, &w.args).map_err(|e| format!("{}: {e}", w.name))?;
    if got != reference {
        return Err(format!("{}: native image returned {got}, reference {reference}", w.name));
    }
    Ok(ExecImage {
        name: w.name.clone(),
        family,
        config: kind.label(),
        image,
        entry: w.entry.clone(),
        args: w.args.clone(),
        reference,
        native_size: native.size(),
        native_cycles: emu.stats().cycles,
    })
}

/// Builds the fixed image list. Every image is protected with seed 1, the
/// seed `exp_fig5` uses: chain and interpreter costs move with the
/// protection seed (b-trees under `ROP1.00` retires 12M to 35M guest
/// instructions across seeds), so the workload seed only orders the runs.
fn images(tr: &mut Tracer) -> Result<(Vec<ExecImage>, SetupCosts), String> {
    let mut costs = SetupCosts::default();
    let rop = ObfKind::Rop { k: 1.0 };
    let vm1 = ObfKind::Vm { layers: 1, implicit: ImplicitAt::All };
    let vm2 = ObfKind::Vm { layers: 2, implicit: ImplicitAt::Last };
    let mut out = Vec::new();
    let kernels = raindrop_synth::clbg_suite();
    for (name, kind, family) in [
        ("b-trees", &rop, "rop"),
        ("sp-norm", &rop, "rop"),
        ("fannkuch", &vm1, "vm1"),
        ("n-body", &vm1, "vm1"),
        ("pidigits", &vm1, "vm1"),
        ("rev-comp", &vm1, "vm1"),
    ] {
        let w = kernels.iter().find(|w| w.name == name).ok_or(format!("no kernel {name}"))?;
        let reference = || {
            Interp::with_budget(&w.program, REFERENCE_BUDGET)
                .call(&w.entry, &w.args)
                .map_err(|e| format!("{name}: reference interpreter: {e:?}"))
        };
        out.push(build(w, kind, family, reference, PROTECTION_SEED, tr, &mut costs)?);
    }
    let corpus = classes::generate_all(CORPUS_SEED);
    for (name, family) in
        [("stress-s0-0", "vm2"), ("depth-recursion", "vm2"), ("smc-cadence1", "smc")]
    {
        let cp = corpus.iter().find(|c| c.workload.name == name).ok_or(format!("no {name}"))?;
        let reference = || Ok(cp.reference_value());
        out.push(build(&cp.workload, &vm2, family, reference, PROTECTION_SEED, tr, &mut costs)?);
    }
    Ok((out, costs))
}

/// One image's emulator (fresh on its first run, then restored from the
/// snapshot taken right after loading) and its measurements.
#[derive(Default)]
struct Slot {
    emu: Option<(Emulator, Snapshot)>,
    times: Vec<f64>,
    /// When each run in `times` started.
    starts: Vec<Instant>,
    /// (instructions, cycles, rets, memory operations) of the first run.
    counts: Option<(u64, u64, u64, u64)>,
}

/// Runs image `i` once: restore (unless fresh), then the timed call.
/// Returns the run's seconds, or `None` when it failed.
fn run_once(
    img: &ExecImage,
    slot: &mut Slot,
    i: usize,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Option<f64> {
    match &mut slot.emu {
        Some((emu, snap)) => tr.time("machine.restore", i as u64, |_| emu.restore(snap)),
        None => {
            let emu = Emulator::new(&img.image);
            let snap = emu.snapshot();
            slot.emu = Some((emu, snap));
        }
    }
    let emu = &mut slot.emu.as_mut().expect("emulator loaded").0;
    emu.set_budget(EXEC_CAP);
    let span = match img.family {
        "rop" => "machine.run.rop",
        "vm1" => "machine.run.vm1",
        "vm2" => "machine.run.vm2",
        _ => "machine.run.smc",
    };
    let t = Instant::now();
    let result = tr.time(span, i as u64, |_| emu.call_named(&img.image, &img.entry, &img.args));
    let dt = t.elapsed().as_secs_f64();
    o.attempted += 1;
    let s = emu.stats();
    let counts = (s.instructions, s.cycles, s.rets, s.mem_reads + s.mem_writes);
    match result {
        Ok(v) => {
            if v != img.reference {
                o.error(format!("{}: returned {v}, reference {}", img.name, img.reference));
            }
            match slot.counts {
                None => slot.counts = Some(counts),
                Some(c) if c != counts => {
                    o.error(format!("{}: counts differ between runs", img.name))
                }
                Some(_) => {}
            }
            slot.times.push(dt);
            slot.starts.push(t);
            Some(dt)
        }
        Err(EmuError::BudgetExceeded { .. }) => {
            o.failed += 1;
            None
        }
        Err(e) => {
            o.failed += 1;
            o.error(format!("{}: {e}", img.name));
            None
        }
    }
}

/// The `execute` workload.
pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let origin = Instant::now();
    let mut speed = Speed::new(Duration::ZERO);
    let mut setup_tracer = Tracer::new(origin, false);
    let (built, setup) = timed_setup(&mut speed, |rep| {
        // The first rep's spans are kept: it is the one a user pays.
        let mut tr = Tracer::new(origin, args.trace && rep == 0);
        let built = images(&mut tr);
        if rep == 0 {
            setup_tracer = tr;
        }
        built
    });
    o.metric("setup_s", setup);
    let (imgs, costs) = match built {
        Ok(b) => b,
        Err(e) => {
            o.error(e);
            return o;
        }
    };
    let ratio = geomean(imgs.iter().map(|m| m.image.size() as f64 / m.native_size as f64));
    o.metric("size_ratio", ratio);
    o.count("size_ratio", ratio);
    let mut order: Vec<usize> = (0..imgs.len()).collect();
    Rng::new(args.seed, 0x6f72_6472).shuffle(&mut order);
    o.note(
        "method",
        obj(vec![
            (
                "workload",
                text("protected images run on the emulator, checked against the MiniC reference"),
            ),
            ("threads", Value::U64(1)),
            ("order", Value::Seq(order.iter().map(|&i| text(imgs[i].name.clone())).collect())),
            ("instruction_cap", Value::U64(EXEC_CAP)),
        ]),
    );
    let mut slots: Vec<Slot> = imgs.iter().map(|_| Slot::default()).collect();
    if args.trace {
        return trace(args, &imgs, &mut slots, &order, setup_tracer, costs, o);
    }
    let mut tr = Tracer::new(origin, false);
    let start = Instant::now();
    let mut k = 0;
    while k < order.len() * MIN_RUNS || start.elapsed() < args.seconds {
        let i = order[k % order.len()];
        speed.between();
        run_once(&imgs[i], &mut slots[i], i, &mut tr, &mut o);
        k += 1;
    }
    speed.burst();
    if let Some(e) = speed.check() {
        o.error(e);
    }
    let raw: Vec<f64> = slots.iter().map(|s| median(&s.times)).collect();
    let per_image: Vec<f64> = slots
        .iter()
        .map(|s| {
            median(
                &s.times
                    .iter()
                    .zip(&s.starts)
                    .map(|(&t, &at)| speed.scaled(at, t))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    o.note("speed", speed.summary());
    o.note("raw_pass_s", num(raw.iter().sum()));
    o.note(
        "image_s_at_reference_speed",
        Value::Map(imgs.iter().zip(&per_image).map(|(m, &t)| (m.name.clone(), num(t))).collect()),
    );
    // Each image counts once, however often the window let it run. The
    // operations are picked by guest-instruction count, an exact count, so
    // the same image is the median (the longest) one in every run.
    o.metric("pass_s", per_image.iter().sum());
    let mut by_length: Vec<usize> = (0..imgs.len()).collect();
    by_length.sort_by_key(|&i| slots[i].counts.map_or(0, |c| c.0));
    let (mid, longest) = (by_length[by_length.len() / 2], by_length[by_length.len() - 1]);
    o.metric("op_ms.p50", per_image[mid] * 1e3);
    o.metric("op_ms.tail", per_image[longest] * 1e3);
    o.note(
        "op_ms",
        obj(vec![
            (
                "op_ms.p50",
                text("median run time of the image with the median guest-instruction count"),
            ),
            ("op_ms.tail", text("median run time of the image with the most guest instructions")),
            (
                "times",
                text("every run (the first fresh, then snapshot-restored), at the reference speed"),
            ),
            ("p50_image", text(imgs[mid].name.clone())),
            ("tail_image", text(imgs[longest].name.clone())),
            ("runs", Value::U64(slots[longest].times.len() as u64)),
        ]),
    );
    o.note(
        "run_s",
        Value::Map(
            imgs.iter()
                .zip(&slots)
                .map(|(m, s)| {
                    let runs = Value::Seq(s.times.iter().map(|&t| num(t)).collect());
                    (format!("{}/{}", m.name, m.config), runs)
                })
                .collect(),
        ),
    );
    note_counts(&mut o, &imgs, &slots);
    o
}

/// Records the exact-repeat counts: guest instructions and cycles per image
/// and the cycle slowdown over the native image.
fn note_counts(o: &mut Outcome, imgs: &[ExecImage], slots: &[Slot]) {
    for (m, s) in imgs.iter().zip(slots) {
        if let Some((insts, cycles, _, _)) = s.counts {
            o.count(&format!("{}/{}", m.name, m.config), format!("{insts} insts, {cycles} cycles"));
        }
    }
    let slowdown = geomean(
        imgs.iter()
            .zip(slots)
            .filter_map(|(m, s)| s.counts.map(|c| c.1 as f64 / m.native_cycles as f64)),
    );
    o.count("slowdown_geomean", slowdown);
}

/// Traced `execute`: alternates an untraced and a traced pass over the list
/// (each image once per pass) until the window closes.
fn trace(
    args: &Args,
    imgs: &[ExecImage],
    slots: &mut [Slot],
    order: &[usize],
    setup_tracer: Tracer,
    costs: SetupCosts,
    mut o: Outcome,
) -> Outcome {
    let origin = Instant::now();
    let mut all = Tracer::new(origin, true);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < args.seconds {
        for on in alternate(plain.len()) {
            let mut tr = Tracer::new(origin, on);
            let mut wall = 0.0;
            for &i in order {
                if let Some(dt) = run_once(&imgs[i], &mut slots[i], i, &mut tr, &mut o) {
                    wall += dt;
                }
            }
            if on {
                traced.push(wall);
                all.absorb(tr);
            } else {
                plain.push(wall);
            }
        }
    }
    let mips = |family: Option<&str>| {
        let (mut insts, mut secs) = (0u64, 0.0f64);
        for (m, s) in imgs.iter().zip(slots.iter()) {
            if family.is_none_or(|f| f == m.family) {
                if let Some(c) = s.counts {
                    insts += c.0 * s.times.len() as u64;
                    secs += s.times.iter().sum::<f64>();
                }
            }
        }
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    o.metric("machine.mips", mips(None));
    for family in ["rop", "vm1", "vm2", "smc"] {
        o.metric(&format!("machine.{family}.mips"), mips(Some(family)));
    }
    let totals = slots
        .iter()
        .filter_map(|s| s.counts)
        .fold((0u64, 0u64, 0u64, 0u64), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2, a.3 + c.3));
    o.metric("machine.guest_insts", totals.0 as f64);
    o.metric("machine.rets_per_kinst", totals.2 as f64 * 1e3 / totals.0.max(1) as f64);
    o.metric("machine.memops_per_inst", totals.3 as f64 / totals.0.max(1) as f64);
    o.metric("machine.restore_us", median(&all.durations_ms("machine.restore")) * 1e3);
    let slowdown = |config: &str| {
        geomean(
            imgs.iter()
                .zip(slots.iter())
                .filter(|(m, _)| m.config == config)
                .filter_map(|(m, s)| s.counts.map(|c| c.1 as f64 / m.native_cycles as f64)),
        )
    };
    o.metric("core.slowdown.rop", slowdown("ROP1.00"));
    o.metric("obfvm.slowdown.vm1", slowdown("1VM-IMPall"));
    o.metric("obfvm.slowdown.vm2", slowdown("2VM-IMPlast"));
    note_counts(&mut o, imgs, slots);
    if let Some(Value::F64(s)) = o.counts.get("slowdown_geomean") {
        let s = *s;
        o.metric("machine.slowdown_geomean", s);
    }
    o.metric("synth.reference_ms", setup_tracer.total_ms("synth.reference"));
    o.metric("synth.compile_ms", costs.compile_ms);
    o.metric("core.rop_pass_ms", costs.rop_pass_ms);
    o.metric("obfvm.vm_pass_ms", costs.vm_pass_ms);
    o.metric("trace.overhead", median(&traced) / median(&plain) - 1.0);
    all.absorb(setup_tracer);
    o.metric("trace.spans", all.spans().len() as f64);
    o.note(
        "trace",
        obj(vec![
            ("untraced_pass_s", Value::Seq(plain.iter().map(|&x| num(x)).collect())),
            ("traced_pass_s", Value::Seq(traced.iter().map(|&x| num(x)).collect())),
            ("overhead", text("median traced pass over median untraced pass, minus one")),
        ]),
    );
    write_spans(args, &all);
    o
}
