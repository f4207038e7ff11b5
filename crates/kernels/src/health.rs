//! Health (Presto): the Colombian hierarchical health-service simulation
//! (§8). Villages generate patients; a fraction escalate to regional
//! centers. Exclusive access to the shared waiting queues is guaranteed by
//! **locks** — the kernel the paper uses to exercise §5.3.
//!
//! The skeleton: each processor simulates its village (local compute),
//! updates its village counter (owner slot, no lock needed), and every few
//! iterations escalates a patient to its region's queue under the region
//! lock. The lock analysis proves the in-region accesses can overlap.

use crate::{Kernel, KernelParams};
use std::fmt::Write;

/// Generates the Health skeleton for `params`. Four regional centers are
/// used (processors are assigned round-robin by `MYPROC % 4` when there
/// are at least four processors, otherwise everything funnels to region 0).
pub fn generate(params: &KernelParams) -> Kernel {
    let iters = params.steps.max(2);
    let w_care = params.work_per_element as u64 * 4;
    let p = params.procs as u64;
    let regions: u64 = if p >= 4 { 4 } else { 1 };
    let mut s = String::new();
    writeln!(
        s,
        "// Health: hierarchical service system guarded by locks."
    )
    .unwrap();
    writeln!(s, "shared int Village[{p}];").unwrap();
    writeln!(s, "shared int Region[{regions}];").unwrap();
    writeln!(s, "shared int Referrals[{regions}];").unwrap();
    for r in 0..regions {
        writeln!(s, "lock region{r};").unwrap();
    }
    writeln!(s, "\nfn main() {{").unwrap();
    writeln!(s, "    int it;").unwrap();
    writeln!(s, "    int v;").unwrap();
    writeln!(s, "    for (it = 0; it < {iters}; it = it + 1) {{").unwrap();
    writeln!(s, "        // Treat local patients.").unwrap();
    writeln!(s, "        work({w_care});").unwrap();
    writeln!(s, "        Village[MYPROC] = Village[MYPROC] + 1;").unwrap();
    writeln!(s, "        // Escalate one patient to the regional center.").unwrap();
    if regions == 1 {
        writeln!(s, "        lock region0;").unwrap();
        writeln!(s, "        v = Region[0];").unwrap();
        writeln!(s, "        Region[0] = v + 1;").unwrap();
        writeln!(s, "        Referrals[0] = Referrals[0] + 1;").unwrap();
        writeln!(s, "        unlock region0;").unwrap();
    } else {
        for r in 0..regions {
            let kw = if r == 0 { "if" } else { "} else if" };
            writeln!(s, "        {kw} (MYPROC % {regions} == {r}) {{").unwrap();
            writeln!(s, "            lock region{r};").unwrap();
            writeln!(s, "            v = Region[{r}];").unwrap();
            writeln!(s, "            Region[{r}] = v + 1;").unwrap();
            writeln!(s, "            Referrals[{r}] = Referrals[{r}] + 1;").unwrap();
            writeln!(s, "            unlock region{r};").unwrap();
        }
        writeln!(s, "        }}").unwrap();
    }
    writeln!(s, "    }}").unwrap();
    writeln!(s, "}}").unwrap();
    Kernel {
        name: "Health",
        source: s,
        procs: params.procs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_core::analyze;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    #[test]
    fn generates_valid_program_small_and_large() {
        for procs in [2, 4, 8, 64] {
            let k = generate(&KernelParams::evaluation(procs));
            prepare_program(&k.source)
                .unwrap_or_else(|e| panic!("procs={procs}: {e}\n{}", k.source));
        }
    }

    #[test]
    fn critical_section_accesses_are_lock_guarded() {
        let k = generate(&KernelParams::evaluation(8));
        let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let region0 = cfg.vars.by_name("region0").unwrap();
        let guarded = analysis.guards.guarded_by(region0);
        assert!(
            guarded.len() >= 3,
            "read + two writes should be guarded: {guarded:?}"
        );
    }

    #[test]
    fn refinement_shrinks_delays() {
        let k = generate(&KernelParams::evaluation(8));
        let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let s = analysis.stats();
        assert!(s.delay_sync < s.delay_ss, "{s:?}");
    }

    #[test]
    fn simulation_counts_are_correct() {
        let k = generate(&KernelParams {
            procs: 4,
            elements_per_proc: 4,
            steps: 3,
            work_per_element: 20,
        });
        let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
        let r = syncopt_machine::simulate(&cfg, &syncopt_machine::MachineConfig::cm5(4))
            .expect("Health should simulate");
        // Each region got 3 increments from its single member processor.
        let region = cfg.vars.by_name("Region").unwrap();
        let vals = &r.memory.iter().find(|(v, _)| *v == region).unwrap().1;
        for v in vals {
            assert_eq!(*v, syncopt_machine::Value::Int(3));
        }
    }
}
