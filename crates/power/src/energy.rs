//! ORION-like dynamic and leakage power model.
//!
//! The paper couples HORNET to ORION 2.0: at runtime, configuration parameters
//! (buffer sizes, port counts, flit width) and activity statistics (buffer
//! reads/writes, crossbar transits, arbitrations, link traversals) are passed
//! to the power library for on-the-fly energy estimation. This module
//! reproduces that interface with an analytical per-event energy model: each
//! router event is charged an energy derived from the router configuration and
//! technology parameters, and idle routers still burn leakage power.
//! Absolute numbers are calibrated to be plausible for a 45 nm NoC router
//! (a few mW per router at moderate load), but the model's purpose — like
//! ORION's inside HORNET — is to expose per-tile, per-interval power that the
//! thermal model and power-aware experiments can consume.

use hornet_net::stats::RouterActivity;

/// Technology / configuration parameters of the power model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PowerConfig {
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Virtual channels per port.
    pub vcs_per_port: u32,
    /// Buffer depth per VC, in flits.
    pub vc_depth: u32,
    /// Router ports (5 for a 2-D mesh router with a local port).
    pub ports: u32,
    /// Clock frequency, in Hz (used to convert energy/cycle to watts).
    pub frequency_hz: f64,
    /// Supply voltage, in volts.
    pub vdd: f64,
    /// Energy per bit for a buffer write, in joules at nominal voltage.
    pub buffer_write_energy_per_bit: f64,
    /// Energy per bit for a buffer read.
    pub buffer_read_energy_per_bit: f64,
    /// Energy per bit for one crossbar traversal.
    pub crossbar_energy_per_bit: f64,
    /// Energy per arbitration operation.
    pub arbiter_energy: f64,
    /// Energy per bit for one inter-router link traversal.
    pub link_energy_per_bit: f64,
    /// Leakage power per router, in watts.
    pub router_leakage_w: f64,
    /// Leakage power per link driver, in watts.
    pub link_leakage_w: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        // Loosely calibrated to ORION 2.0's 45 nm numbers for a 128-bit,
        // 4-VC, 5-port mesh router at 1 GHz.
        Self {
            flit_bits: 128,
            vcs_per_port: 4,
            vc_depth: 4,
            ports: 5,
            frequency_hz: 1.0e9,
            vdd: 1.0,
            buffer_write_energy_per_bit: 0.15e-12,
            buffer_read_energy_per_bit: 0.11e-12,
            crossbar_energy_per_bit: 0.19e-12,
            arbiter_energy: 1.5e-12,
            link_energy_per_bit: 0.25e-12,
            router_leakage_w: 2.0e-3,
            link_leakage_w: 0.5e-3,
        }
    }
}

impl PowerConfig {
    /// Scales the dynamic energies for a different supply voltage
    /// (energy ∝ V²).
    pub fn at_voltage(mut self, vdd: f64) -> Self {
        let scale = (vdd / self.vdd).powi(2);
        self.buffer_write_energy_per_bit *= scale;
        self.buffer_read_energy_per_bit *= scale;
        self.crossbar_energy_per_bit *= scale;
        self.arbiter_energy *= scale;
        self.link_energy_per_bit *= scale;
        self.vdd = vdd;
        self
    }

    /// Buffer capacity scaling factor: bigger buffers leak and cost more per
    /// access (modelled as a square-root capacity dependence, as in ORION's
    /// SRAM model).
    fn buffer_scale(&self) -> f64 {
        ((self.vcs_per_port * self.vc_depth) as f64 / 16.0)
            .sqrt()
            .max(0.25)
    }
}

/// A power sample for one router over one measurement interval.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PowerSample {
    /// Dynamic power, in watts.
    pub dynamic_w: f64,
    /// Leakage power, in watts.
    pub leakage_w: f64,
    /// Total energy consumed over the interval, in joules.
    pub energy_j: f64,
    /// Interval length, in cycles.
    pub cycles: u64,
}

impl PowerSample {
    /// Total power (dynamic + leakage), in watts.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.leakage_w
    }
}

/// The per-router energy model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RouterPowerModel {
    config: PowerConfig,
}

impl RouterPowerModel {
    /// Creates a power model from a configuration.
    pub fn new(config: PowerConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PowerConfig {
        &self.config
    }

    /// Energy consumed by the given activity counts, in joules.
    pub fn dynamic_energy(&self, activity: &RouterActivity) -> f64 {
        let bits = self.config.flit_bits as f64;
        let bscale = self.config.buffer_scale();
        activity.buffer_writes as f64 * self.config.buffer_write_energy_per_bit * bits * bscale
            + activity.buffer_reads as f64 * self.config.buffer_read_energy_per_bit * bits * bscale
            + activity.crossbar_transits as f64
                * self.config.crossbar_energy_per_bit
                * bits
                * (self.config.ports as f64 / 5.0)
            + activity.arbitrations as f64 * self.config.arbiter_energy
            + activity.link_flits as f64 * self.config.link_energy_per_bit * bits
    }

    /// Leakage energy over `cycles` cycles, in joules.
    pub fn leakage_energy(&self, cycles: u64) -> f64 {
        let seconds = cycles as f64 / self.config.frequency_hz;
        (self.config.router_leakage_w
            + self.config.link_leakage_w * self.config.ports as f64
            + self.config.router_leakage_w * 0.1 * self.config.buffer_scale())
            * seconds
    }

    /// Converts an activity delta over an interval into a power sample.
    pub fn sample(&self, activity: &RouterActivity, cycles: u64) -> PowerSample {
        let cycles = cycles.max(1);
        let seconds = cycles as f64 / self.config.frequency_hz;
        let dyn_e = self.dynamic_energy(activity);
        let leak_e = self.leakage_energy(cycles);
        PowerSample {
            dynamic_w: dyn_e / seconds,
            leakage_w: leak_e / seconds,
            energy_j: dyn_e + leak_e,
            cycles,
        }
    }
}

/// Subtracts two cumulative activity records, yielding the activity of the
/// most recent interval.
pub fn activity_delta(current: &RouterActivity, previous: &RouterActivity) -> RouterActivity {
    RouterActivity {
        buffer_writes: current.buffer_writes - previous.buffer_writes,
        buffer_reads: current.buffer_reads - previous.buffer_reads,
        crossbar_transits: current.crossbar_transits - previous.crossbar_transits,
        link_flits: current.link_flits - previous.link_flits,
        arbitrations: current.arbitrations - previous.arbitrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity(n: u64) -> RouterActivity {
        RouterActivity {
            buffer_writes: n,
            buffer_reads: n,
            crossbar_transits: n,
            link_flits: n,
            arbitrations: n,
        }
    }

    #[test]
    fn idle_router_burns_only_leakage() {
        let model = RouterPowerModel::new(PowerConfig::default());
        let s = model.sample(&RouterActivity::default(), 1000);
        assert_eq!(s.dynamic_w, 0.0);
        assert!(s.leakage_w > 0.0);
        assert!(s.total_w() > 0.0);
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let model = RouterPowerModel::new(PowerConfig::default());
        let light = model.sample(&activity(100), 10_000);
        let heavy = model.sample(&activity(1_000), 10_000);
        assert!(heavy.dynamic_w > 9.0 * light.dynamic_w);
        assert!((heavy.leakage_w - light.leakage_w).abs() < 1e-12);
    }

    #[test]
    fn power_magnitude_is_plausible_for_a_45nm_router() {
        // A fully busy router (one flit through every stage every cycle)
        // should land in the single-digit mW to tens-of-mW range.
        let model = RouterPowerModel::new(PowerConfig::default());
        let s = model.sample(&activity(10_000), 10_000);
        assert!(s.total_w() > 1e-3 && s.total_w() < 100e-3, "{s:?}");
    }

    #[test]
    fn bigger_buffers_cost_more() {
        let small = RouterPowerModel::new(PowerConfig {
            vcs_per_port: 2,
            vc_depth: 4,
            ..PowerConfig::default()
        });
        let big = RouterPowerModel::new(PowerConfig {
            vcs_per_port: 8,
            vc_depth: 8,
            ..PowerConfig::default()
        });
        let a = activity(1000);
        assert!(big.dynamic_energy(&a) > small.dynamic_energy(&a));
        assert!(big.leakage_energy(1000) > small.leakage_energy(1000));
    }

    #[test]
    fn voltage_scaling_is_quadratic() {
        let base = PowerConfig::default();
        let low = base.at_voltage(0.5);
        assert!(
            (low.buffer_write_energy_per_bit / base.buffer_write_energy_per_bit - 0.25).abs()
                < 1e-9
        );
    }

    #[test]
    fn activity_delta_subtracts() {
        let d = activity_delta(&activity(10), &activity(4));
        assert_eq!(d.buffer_reads, 6);
        assert_eq!(d.link_flits, 6);
    }
}
