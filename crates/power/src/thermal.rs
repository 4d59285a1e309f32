//! HOTSPOT-like RC thermal model.
//!
//! The chip floorplan is a grid of tiles (one per router + core). Each tile
//! has a thermal capacitance, a lateral thermal conductance to its neighbours,
//! and a vertical conductance through the heat spreader and sink to ambient.
//! Per-tile power traces (from the [`energy`](crate::energy) model) drive the
//! transient temperature response; running the transient model to convergence
//! with constant power yields the steady-state map used in Figure 14.

/// Thermal parameters of the floorplan.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ThermalConfig {
    /// Ambient (heat-sink) temperature, in °C.
    pub ambient_c: f64,
    /// Vertical thermal resistance from one tile to ambient, in K/W.
    pub vertical_resistance: f64,
    /// Lateral thermal resistance between adjacent tiles, in K/W.
    pub lateral_resistance: f64,
    /// Thermal capacitance of one tile, in J/K.
    pub capacitance: f64,
    /// Simulation time step, in seconds.
    pub dt: f64,
    /// Power that is always present per tile besides the router (core +
    /// cache background), in watts; lets the absolute temperatures land in a
    /// realistic 70–95 °C band as in the paper's figures.
    pub background_power_w: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            ambient_c: 45.0,
            vertical_resistance: 2.0,
            lateral_resistance: 4.0,
            capacitance: 0.03,
            dt: 1.0e-4,
            background_power_w: 12.0,
        }
    }
}

/// The RC grid and its current temperatures.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalGrid {
    config: ThermalConfig,
    width: usize,
    height: usize,
    temps: Vec<f64>,
}

impl ThermalGrid {
    /// Creates a grid of `width × height` tiles, initialised to a temperature
    /// consistent with every tile dissipating only the background power.
    pub fn new(width: usize, height: usize, config: ThermalConfig) -> Self {
        assert!(width > 0 && height > 0, "floorplan must be non-empty");
        let initial = config.ambient_c + config.background_power_w * config.vertical_resistance;
        Self {
            config,
            width,
            height,
            temps: vec![initial; width * height],
        }
    }

    /// The floorplan width in tiles.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The floorplan height in tiles.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Current per-tile temperatures (row-major), in °C.
    pub fn temperatures(&self) -> &[f64] {
        &self.temps
    }

    /// Maximum tile temperature, in °C.
    pub fn max_temp(&self) -> f64 {
        self.temps.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Mean tile temperature, in °C.
    pub fn mean_temp(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }

    /// Index of the hottest tile.
    pub fn hotspot(&self) -> usize {
        self.temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite temperatures"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn neighbors(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let (x, y) = (idx % self.width, idx / self.width);
        let mut v = Vec::with_capacity(4);
        if x > 0 {
            v.push(idx - 1);
        }
        if x + 1 < self.width {
            v.push(idx + 1);
        }
        if y > 0 {
            v.push(idx - self.width);
        }
        if y + 1 < self.height {
            v.push(idx + self.width);
        }
        v.into_iter()
    }

    /// Advances the transient model by one time step under the given per-tile
    /// power dissipation (watts, router power; the configured background power
    /// is added automatically).
    ///
    /// # Panics
    ///
    /// Panics if `powers.len()` does not match the floorplan.
    pub fn step(&mut self, powers: &[f64]) {
        assert_eq!(powers.len(), self.temps.len(), "one power value per tile");
        let cfg = &self.config;
        let mut next = self.temps.clone();
        for i in 0..self.temps.len() {
            let t = self.temps[i];
            let mut flow = (powers[i] + cfg.background_power_w)
                - (t - cfg.ambient_c) / cfg.vertical_resistance;
            for n in self.neighbors(i) {
                flow -= (t - self.temps[n]) / cfg.lateral_resistance;
            }
            next[i] = t + cfg.dt / cfg.capacitance * flow;
        }
        self.temps = next;
    }

    /// Advances the transient model by `steps` time steps under constant
    /// power.
    pub fn run(&mut self, powers: &[f64], steps: usize) {
        for _ in 0..steps {
            self.step(powers);
        }
    }

    /// Computes the steady-state temperature map for a constant power
    /// distribution (iterates the transient model until the largest per-step
    /// change drops below `tolerance` °C).
    pub fn steady_state(&mut self, powers: &[f64], tolerance: f64) -> &[f64] {
        for _ in 0..200_000 {
            let before = self.temps.clone();
            self.step(powers);
            let delta = self
                .temps
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if delta < tolerance {
                break;
            }
        }
        &self.temps
    }
}

/// A set of on-die thermal sensors and the readings they would report.
///
/// Sensors are expensive, so designers place only a few; the question the
/// paper investigates (§IV-E) is where to put them so the reading tracks the
/// true hotspot.
#[derive(Clone, Debug, PartialEq)]
pub struct SensorPlacement {
    /// Tile indices carrying a sensor.
    pub positions: Vec<usize>,
}

impl SensorPlacement {
    /// A single sensor at the centre of the die.
    pub fn center(width: usize, height: usize) -> Self {
        Self {
            positions: vec![(height / 2) * width + width / 2],
        }
    }

    /// A single sensor next to the memory controller in the lower-left corner.
    pub fn at_memory_controller() -> Self {
        Self { positions: vec![0] }
    }

    /// The highest temperature any of the sensors reads.
    pub fn max_reading(&self, grid: &ThermalGrid) -> f64 {
        self.positions
            .iter()
            .map(|&i| grid.temperatures()[i])
            .fold(f64::MIN, f64::max)
    }

    /// How far the sensors' reading is below the true hotspot temperature
    /// (0 = the sensors see the real maximum).
    pub fn tracking_error(&self, grid: &ThermalGrid) -> f64 {
        (grid.max_temp() - self.max_reading(grid)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, w: f64) -> Vec<f64> {
        vec![w; n]
    }

    #[test]
    fn uniform_power_gives_a_uniform_map() {
        let mut grid = ThermalGrid::new(8, 8, ThermalConfig::default());
        grid.steady_state(&uniform(64, 0.01), 1e-5);
        let spread = grid.max_temp() - grid.temperatures().iter().copied().fold(f64::MAX, f64::min);
        assert!(
            spread < 0.5,
            "uniform power must not create a hotspot (spread {spread})"
        );
        assert!(grid.max_temp() > grid.config.ambient_c);
    }

    #[test]
    fn centre_heavy_power_puts_the_hotspot_in_the_centre() {
        // XY routing concentrates traffic (and therefore router power) on the
        // central tiles; the steady-state hotspot must follow it (Figure 14).
        let mut grid = ThermalGrid::new(8, 8, ThermalConfig::default());
        let mut powers = vec![0.005; 64];
        for y in 0..8usize {
            for x in 0..8usize {
                let centrality = (4.0 - (x as f64 - 3.5).abs()) + (4.0 - (y as f64 - 3.5).abs());
                powers[y * 8 + x] = 0.005 + 0.01 * centrality;
            }
        }
        grid.steady_state(&powers, 1e-5);
        let hotspot = grid.hotspot();
        let (x, y) = (hotspot % 8, hotspot / 8);
        assert!(
            (2..6).contains(&x) && (2..6).contains(&y),
            "hotspot at ({x},{y})"
        );
    }

    #[test]
    fn more_power_means_higher_steady_temperature() {
        let mut cool = ThermalGrid::new(4, 4, ThermalConfig::default());
        cool.steady_state(&uniform(16, 0.005), 1e-4);
        let mut hot = ThermalGrid::new(4, 4, ThermalConfig::default());
        hot.steady_state(&uniform(16, 0.05), 1e-4);
        assert!(hot.mean_temp() > cool.mean_temp());
    }

    #[test]
    fn transient_response_lags_power_changes() {
        let mut grid = ThermalGrid::new(4, 4, ThermalConfig::default());
        let idle = grid.mean_temp();
        // One burst of high power: temperature rises but not instantly to the
        // steady-state value.
        grid.run(&uniform(16, 2.0), 10);
        let after_burst = grid.mean_temp();
        assert!(after_burst > idle);
        let mut steady = ThermalGrid::new(4, 4, ThermalConfig::default());
        steady.steady_state(&uniform(16, 2.0), 1e-4);
        assert!(after_burst < steady.mean_temp());
        // Power removed: it cools back down.
        grid.run(&uniform(16, 0.0), 2_000);
        assert!(grid.mean_temp() < after_burst);
    }

    #[test]
    fn centre_sensor_tracks_hotspot_better_than_corner_sensor() {
        // Skewed but roughly centre-heavy power map, as produced by XY routing.
        let mut grid = ThermalGrid::new(8, 8, ThermalConfig::default());
        let mut powers = vec![0.002; 64];
        for y in 0..8 {
            for x in 0..8 {
                let centrality = (4.0 - (x as f64 - 3.5).abs()) + (4.0 - (y as f64 - 3.5).abs());
                powers[y * 8 + x] = 0.002 + 0.004 * centrality;
            }
        }
        grid.steady_state(&powers, 1e-4);
        let center = SensorPlacement::center(8, 8);
        let corner = SensorPlacement::at_memory_controller();
        assert!(center.max_reading(&grid) > corner.max_reading(&grid));
    }

    #[test]
    fn absolute_temperatures_are_in_a_plausible_band() {
        // With the default background power the idle die sits around 69 °C and
        // a busy NoC pushes tiles into the 70–95 °C band of Figure 13/14.
        let mut grid = ThermalGrid::new(8, 8, ThermalConfig::default());
        grid.steady_state(&uniform(64, 0.02), 1e-4);
        assert!(
            grid.mean_temp() > 60.0 && grid.max_temp() < 110.0,
            "{}",
            grid.mean_temp()
        );
    }

    #[test]
    #[should_panic(expected = "one power value per tile")]
    fn mismatched_power_vector_panics() {
        let mut grid = ThermalGrid::new(2, 2, ThermalConfig::default());
        grid.step(&[0.0; 3]);
    }
}
