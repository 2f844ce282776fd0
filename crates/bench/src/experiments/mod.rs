//! One module per paper figure; see DESIGN.md's experiment index.

pub mod ablations;
pub mod chem_ablation;
pub mod fig03_05;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18_19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod table1;

use baat_core::{BaatConfig, Scheme};
use baat_sim::{SimConfig, SimReport};

use crate::runner::{run_scenarios, runner_threads, Scenario};

/// Runs one BAAT cell per policy configuration plus the e-Buff reference,
/// all on `config`'s days, as one warm group of the scenario runner.
/// Returns the BAAT reports in policy order, then e-Buff's.
fn baat_sweep(
    policies: impl Iterator<Item = BaatConfig>,
    config: SimConfig,
) -> (Vec<SimReport>, SimReport) {
    let mut cells: Vec<Scenario> = policies
        .map(|policy| Scenario::new(policy, config.clone()))
        .collect();
    cells.push(Scenario::new(Scheme::EBuff, config));
    let mut reports = run_scenarios(cells, runner_threads());
    let ebuff = reports.pop().expect("the e-Buff cell");
    (reports, ebuff)
}
