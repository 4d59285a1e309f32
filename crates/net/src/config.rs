//! Network configuration.
//!
//! Most hardware parameters of the modeled NoC are configurable: interconnect
//! geometry, routing and VC-allocation algorithms, the number and depth of
//! virtual channels (independently for router-facing and CPU-facing ports),
//! and link bandwidth.

use crate::geometry::Geometry;
use crate::routing::{FlowSpec, RoutingKind};
use crate::vca::VcAllocKind;

/// Errors produced when validating a [`NetworkConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A numeric parameter was zero that must be positive.
    ZeroParameter(&'static str),
    /// The geometry is not fully connected.
    DisconnectedGeometry,
    /// A flow references a node outside the geometry.
    FlowOutOfRange,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroParameter(p) => write!(f, "parameter `{p}` must be non-zero"),
            ConfigError::DisconnectedGeometry => write!(f, "geometry is not connected"),
            ConfigError::FlowOutOfRange => write!(f, "flow references a node outside the geometry"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete configuration of the simulated network.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Interconnect geometry.
    pub geometry: Geometry,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// VC-allocation algorithm.
    pub vca: VcAllocKind,
    /// Virtual channels per router-facing port.
    pub vcs_per_port: usize,
    /// Depth of each router-facing VC buffer, in flits.
    pub vc_capacity: usize,
    /// Virtual channels on the CPU-facing (injection) port.
    pub injection_vcs: usize,
    /// Depth of each injection VC buffer, in flits.
    pub injection_vc_capacity: usize,
    /// Link bandwidth in flits per cycle per direction.
    pub link_bandwidth: u32,
    /// Ejection (network→CPU) bandwidth in flits per cycle.
    pub ejection_bandwidth: u32,
    /// The flows the routing/VCA tables must cover.
    pub flows: Vec<FlowSpec>,
}

impl NetworkConfig {
    /// Creates a configuration with the paper's default parameters
    /// (4 VCs/port, 4-flit buffers, 1 flit/cycle links, dynamic VCA, XY).
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            routing: RoutingKind::Xy,
            vca: VcAllocKind::Dynamic,
            vcs_per_port: 4,
            vc_capacity: 4,
            injection_vcs: 4,
            injection_vc_capacity: 8,
            link_bandwidth: 1,
            ejection_bandwidth: 1,
            flows: Vec::new(),
        }
    }

    /// Builder-style setter for the routing algorithm.
    pub fn with_routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style setter for the VC-allocation algorithm.
    pub fn with_vca(mut self, vca: VcAllocKind) -> Self {
        self.vca = vca;
        self
    }

    /// Builder-style setter for VCs per port and their depth.
    pub fn with_vcs(mut self, vcs_per_port: usize, vc_capacity: usize) -> Self {
        self.vcs_per_port = vcs_per_port;
        self.vc_capacity = vc_capacity;
        self.injection_vcs = vcs_per_port;
        self
    }

    /// Builder-style setter for the flow set.
    pub fn with_flows(mut self, flows: Vec<FlowSpec>) -> Self {
        self.flows = flows;
        self
    }

    /// Builder-style setter for all-to-all flows over the geometry.
    pub fn with_all_to_all_flows(mut self) -> Self {
        self.flows = FlowSpec::all_to_all(&self.geometry);
        self
    }

    /// Builder-style setter for link bandwidth (flits/cycle/direction).
    pub fn with_link_bandwidth(mut self, bw: u32) -> Self {
        self.link_bandwidth = bw;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a structural parameter is zero, the
    /// geometry is disconnected, or a flow references an out-of-range node.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vcs_per_port == 0 {
            return Err(ConfigError::ZeroParameter("vcs_per_port"));
        }
        if self.vc_capacity == 0 {
            return Err(ConfigError::ZeroParameter("vc_capacity"));
        }
        if self.injection_vcs == 0 {
            return Err(ConfigError::ZeroParameter("injection_vcs"));
        }
        if self.injection_vc_capacity == 0 {
            return Err(ConfigError::ZeroParameter("injection_vc_capacity"));
        }
        if self.link_bandwidth == 0 {
            return Err(ConfigError::ZeroParameter("link_bandwidth"));
        }
        if self.ejection_bandwidth == 0 {
            return Err(ConfigError::ZeroParameter("ejection_bandwidth"));
        }
        if !self.geometry.is_connected() {
            return Err(ConfigError::DisconnectedGeometry);
        }
        let n = self.geometry.node_count();
        if self
            .flows
            .iter()
            .any(|f| f.src.index() >= n || f.dst.index() >= n)
        {
            return Err(ConfigError::FlowOutOfRange);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn default_config_is_valid() {
        let cfg = NetworkConfig::new(Geometry::mesh2d(4, 4)).with_all_to_all_flows();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.vcs_per_port, 4);
        assert_eq!(cfg.link_bandwidth, 1);
    }

    #[test]
    fn zero_parameters_are_rejected() {
        let cfg = NetworkConfig::new(Geometry::mesh2d(2, 2)).with_vcs(0, 4);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("vcs_per_port"))
        );
        let cfg = NetworkConfig::new(Geometry::mesh2d(2, 2)).with_vcs(2, 0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("vc_capacity"))
        );
    }

    #[test]
    fn disconnected_geometry_is_rejected() {
        use crate::geometry::{Connection, Geometry};
        let g = Geometry::custom(3, vec![Connection::new(NodeId::new(0), NodeId::new(1))]);
        let cfg = NetworkConfig::new(g);
        assert_eq!(cfg.validate(), Err(ConfigError::DisconnectedGeometry));
    }

    #[test]
    fn out_of_range_flow_is_rejected() {
        let mut cfg = NetworkConfig::new(Geometry::mesh2d(2, 2));
        cfg.flows = vec![FlowSpec::pair(NodeId::new(0), NodeId::new(9), 4)];
        assert_eq!(cfg.validate(), Err(ConfigError::FlowOutOfRange));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ConfigError::ZeroParameter("x").to_string().contains('x'));
        assert!(!ConfigError::DisconnectedGeometry.to_string().is_empty());
        assert!(!ConfigError::FlowOutOfRange.to_string().is_empty());
    }
}
