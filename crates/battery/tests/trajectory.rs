//! Bit-level trajectory pins for both chemistries.
//!
//! Per chemistry, one fixed script drives a fresh unit, a pre-aged unit
//! and four manufactured units with the default variation: discharge,
//! an over-limit request the cutoff refuses, a deep discharge to empty,
//! a charge through the taper knee (and lead-acid's gassing band), idle
//! rests and ambient swings, with a `capture_state` → `restore_state`
//! round trip onto freshly manufactured units mid-charge. Every step
//! result and the per-step SoC, damage, temperature and hours since
//! full are folded into an FNV-1a hash, followed by each unit's final
//! aging breakdown, cutoff count, OCV, resistance, capacity, reserve and
//! lifetime usage accumulators.
//!
//! The two hashes are the values the model produced when each chemistry
//! still had its own battery type, so any change to the arithmetic of a
//! step — an operand reordered, a knee moved, a loss dropped — shows
//! here.

use baat_battery::{BatteryModel, BatteryOp, BatteryPack, BatterySpec, Chemistry, VariationParams};
use baat_units::{Celsius, SimDuration, SimInstant, Watts};

/// Pinned trajectory hash of the lead-acid script.
const LEAD_ACID_HASH: u64 = 0x0df9_e00b_f984_e577;
/// Pinned trajectory hash of the li-ion script.
const LI_ION_HASH: u64 = 0x5e94_5f40_b190_211b;

/// Damage the pre-aged unit starts from.
const PRE_AGE: f64 = 0.4;
/// Seed of the four varied units.
const PACK_SEED: u64 = 17;
/// Step index at which every unit is captured and restored onto a
/// freshly manufactured one: four hours into the long charge, where
/// the lead-acid units taper through the gassing band.
const RESTORE_AT: usize = 375;

#[derive(Clone, Copy)]
enum Kind {
    Discharge,
    Charge,
    Idle,
}

/// `(operation, power W, ambient °C, dt s, steps)`.
const SCRIPT: &[(Kind, f64, f64, u64, usize)] = &[
    (Kind::Discharge, 120.0, 25.0, 60, 60),
    (Kind::Discharge, 2_000.0, 25.0, 60, 5),
    (Kind::Discharge, 300.0, 30.0, 60, 150),
    (Kind::Idle, 0.0, 35.0, 60, 30),
    (Kind::Charge, 200.0, 15.0, 120, 360),
    (Kind::Idle, 0.0, 40.0, 600, 36),
    (Kind::Discharge, 80.0, 5.0, 30, 120),
    (Kind::Charge, 80.0, 22.0, 30, 240),
    (Kind::Idle, 0.0, 25.0, 3_600, 24),
];

/// FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// The three packs of one chemistry: fresh, pre-aged and varied. The
/// pre-aging is not re-applied on restore: the captured state carries
/// the damage.
fn manufacture_packs(spec: &BatterySpec) -> [BatteryPack; 3] {
    let fresh = BatteryPack::uniform(spec.clone(), 1).unwrap();
    let aged = BatteryPack::uniform(spec.clone(), 1).unwrap();
    let varied =
        BatteryPack::manufacture(spec.clone(), 4, VariationParams::default(), PACK_SEED).unwrap();
    [fresh, aged, varied]
}

fn trajectory_hash(chemistry: Chemistry) -> u64 {
    let spec = match chemistry {
        Chemistry::LeadAcid => BatterySpec::prototype(),
        Chemistry::LiIon => BatterySpec::li_ion_prototype(),
    };
    let mut packs = manufacture_packs(&spec);
    for unit in packs[1].iter_mut() {
        unit.pre_age(PRE_AGE);
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut now = SimInstant::START;
    let mut k = 0;
    for &(kind, power, ambient, dt_secs, steps) in SCRIPT {
        let op = match kind {
            Kind::Discharge => BatteryOp::Discharge(Watts::new(power)),
            Kind::Charge => BatteryOp::Charge(Watts::new(power)),
            Kind::Idle => BatteryOp::Idle,
        };
        let dt = SimDuration::from_secs(dt_secs);
        for _ in 0..steps {
            if k == RESTORE_AT {
                for (pack, fresh) in packs.iter_mut().zip(manufacture_packs(&spec)) {
                    for (unit, mut target) in pack.iter_mut().zip(fresh.iter().cloned()) {
                        target.restore_state(&unit.capture_state());
                        *unit = target;
                    }
                }
            }
            // Ambient swings ±3 °C around the segment's level.
            let swing = [0.0, 1.5, 3.0, 1.5, 0.0, -1.5, -3.0, -1.5][k % 8];
            let ambient = Celsius::new(ambient + swing);
            for unit in packs.iter_mut().flat_map(BatteryPack::iter_mut) {
                assert_eq!(unit.chemistry(), chemistry);
                let r = unit.step(op, ambient, now, dt);
                h.f(r.delivered.as_f64());
                h.f(r.accepted.as_f64());
                h.f(r.terminal_voltage.as_f64());
                h.f(r.current.as_f64());
                h.word(u64::from(r.cutoff));
                h.f(unit.soc().value());
                h.f(unit.total_damage());
                h.f(unit.temperature().as_f64());
                h.f(unit.hours_since_full());
            }
            now += dt;
            k += 1;
        }
    }
    for unit in packs.iter().flat_map(BatteryPack::iter) {
        for (label, damage) in unit.aging_breakdown().iter() {
            h.word(label.len() as u64);
            h.f(damage);
        }
        h.word(unit.cutoff_events());
        h.f(unit.open_circuit_voltage().as_f64());
        h.f(unit.internal_resistance().as_f64());
        h.f(unit.effective_capacity().as_f64());
        h.word(
            unit.reserve_duration(Watts::new(60.0))
                .map_or(u64::MAX, |d| d.as_secs()),
        );
        let acc = unit.telemetry().lifetime();
        h.f(acc.ah_discharged.as_f64());
        h.f(acc.ah_charged.as_f64());
        for ah in acc.ah_discharged_by_range {
            h.f(ah.as_f64());
        }
        h.word(acc.observed.as_secs());
        h.word(acc.deep_discharge_time.as_secs());
        for t in acc.soc_time_histogram {
            h.word(t.as_secs());
        }
        h.f(acc.peak_discharge.as_f64());
        h.f(acc.discharge_amp_seconds);
        h.word(acc.discharge_time.as_secs());
        h.f(acc.energy_out.as_f64());
        h.f(acc.energy_in.as_f64());
        h.word(acc.full_charge_events);
    }
    h.0
}

#[test]
fn lead_acid_trajectory_is_pinned() {
    assert_eq!(
        trajectory_hash(Chemistry::LeadAcid),
        LEAD_ACID_HASH,
        "lead-acid trajectory hash moved"
    );
}

#[test]
fn li_ion_trajectory_is_pinned() {
    assert_eq!(
        trajectory_hash(Chemistry::LiIon),
        LI_ION_HASH,
        "li-ion trajectory hash moved"
    );
}
