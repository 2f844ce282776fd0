//! Integration across the substrate crates without the engine: battery ×
//! charger × switcher × sensors × metrics working as one power chain.

use baat_repro::battery::{Battery, BatteryModel, BatteryOp, BatterySpec};
use baat_repro::metrics::{
    dod_goal, weighted_aging, AgingMetrics, BatteryRatings, PlannedAgingInputs,
};
use baat_repro::power::{BatterySensor, Charger, NoiseSpec, PowerSwitcher};
use baat_repro::units::{AmpHours, Celsius, SimDuration, SimInstant, Soc, Watts};
use baat_repro::workload::{DemandClass, EnergyDemand, PowerDemand, WorkloadKind};

/// Runs a node-level power chain for one simulated stretch: a constant
/// server demand against a solar profile, routed through the switcher
/// into battery/charger, sampled by a sensor.
fn run_chain(demand_w: f64, solar_w: f64, hours: u64) -> (Battery, f64 /* unserved Wh */) {
    let mut battery = Battery::new(BatterySpec::prototype());
    let charger = Charger::prototype();
    let switcher = PowerSwitcher::prototype();
    let mut sensor = BatterySensor::new(NoiseSpec::default(), 9);
    let dt = SimDuration::from_minutes(5);
    let mut now = SimInstant::START;
    let mut unserved = 0.0;
    for _ in 0..(hours * 12) {
        let routing = switcher.route(
            Watts::new(demand_w),
            Watts::new(solar_w),
            battery.available_discharge_power(),
            charger.acceptance(battery.soc()),
        );
        let op = if routing.battery_to_load.as_f64() > 0.0 {
            BatteryOp::Discharge(routing.battery_to_load)
        } else {
            let p = charger.charge_power(battery.soc(), routing.surplus_to_charger);
            if p.as_f64() > 0.0 {
                BatteryOp::Charge(p)
            } else {
                BatteryOp::Idle
            }
        };
        let result = battery.step(op, Celsius::new(25.0), now, dt);
        let _ = sensor.sample(&battery, result.terminal_voltage, result.current, now);
        unserved += (routing.unserved * dt).as_f64();
        now += dt;
    }
    (battery, unserved)
}

#[test]
fn solar_surplus_keeps_battery_full_and_load_served() {
    let (battery, unserved) = run_chain(100.0, 250.0, 8);
    assert_eq!(unserved, 0.0);
    assert!(battery.soc().value() > 0.95, "soc {}", battery.soc());
}

#[test]
fn solar_deficit_drains_battery_then_sheds_load() {
    let (battery, unserved) = run_chain(200.0, 40.0, 8);
    assert!(battery.soc().value() < 0.2, "battery should be drained");
    assert!(unserved > 0.0, "eventually demand cannot be met");
    assert!(battery.cutoff_events() > 0);
}

#[test]
fn metrics_reflect_the_usage_pattern() {
    let ratings = BatteryRatings {
        capacity: AmpHours::new(35.0),
        lifetime_throughput: AmpHours::new(17_500.0),
    };
    // Gentle pattern: solar covers most of the demand.
    let (gentle, _) = run_chain(120.0, 100.0, 6);
    // Harsh pattern: battery carries everything.
    let (harsh, _) = run_chain(200.0, 0.0, 6);
    let m_gentle = AgingMetrics::from_accumulator(gentle.telemetry().lifetime(), &ratings);
    let m_harsh = AgingMetrics::from_accumulator(harsh.telemetry().lifetime(), &ratings);
    assert!(m_harsh.nat > m_gentle.nat, "harsh usage moves more Ah");
    assert!(
        m_harsh.ddt.value() > m_gentle.ddt.value(),
        "harsh usage lingers deep"
    );
    assert!(
        m_harsh.dr.mean_c_rate > m_gentle.dr.mean_c_rate,
        "harsh usage draws harder"
    );
    // And the Eq-6 weighted value agrees for a heavy workload class.
    let class = DemandClass {
        power: PowerDemand::Large,
        energy: EnergyDemand::More,
    };
    assert!(weighted_aging(&m_harsh, class) > weighted_aging(&m_gentle, class));
}

#[test]
fn aging_feeds_back_into_deliverable_power() {
    let (mut harsh, _) = run_chain(200.0, 0.0, 6);
    let fresh = Battery::new(BatterySpec::prototype());
    harsh.set_soc(Soc::FULL);
    assert!(
        harsh.available_discharge_power() <= fresh.available_discharge_power(),
        "aged battery cannot out-deliver a fresh one"
    );
    assert!(harsh.internal_resistance() > fresh.internal_resistance());
}

#[test]
fn planned_aging_math_consumes_real_telemetry() {
    let (battery, _) = run_chain(180.0, 30.0, 8);
    let used = AmpHours::new(battery.telemetry().lifetime().ah_discharged.as_f64());
    let goal = dod_goal(&PlannedAgingInputs {
        total_throughput: battery.spec().lifetime_throughput(),
        used_throughput: used,
        capacity: battery.spec().capacity(),
        planned_cycles: 400.0,
    })
    .expect("battery has remaining life");
    assert!(goal.value() > 0.0 && goal.value() <= 0.9);
}

#[test]
fn workload_profiles_classify_against_server_class() {
    use baat_repro::server::ServerPowerModel;
    let server = ServerPowerModel::prototype();
    // The paper's stressor is Large/More; its MapReduce job is short.
    let st = WorkloadKind::SoftwareTesting
        .profile()
        .classify(server.idle(), server.peak());
    assert_eq!(st.power, PowerDemand::Large);
    assert_eq!(st.energy, EnergyDemand::More);
    let wc = WorkloadKind::WordCount
        .profile()
        .classify(server.idle(), server.peak());
    assert_eq!(wc.energy, EnergyDemand::Less);
}
