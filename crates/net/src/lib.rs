//! # hornet-net
//!
//! The network substrate of HORNET-RS: a cycle-level model of an
//! ingress-queued virtual-channel wormhole router network-on-chip, as
//! described in *"Scalable, accurate multicore simulation in the 1000-core
//! era"* (Lis et al., ISPASS 2011).
//!
//! The crate provides:
//!
//! * [`geometry`] — interconnect geometries (meshes, tori, rings, multi-layer
//!   meshes, custom connection lists);
//! * [`routing`] — table-driven oblivious/static routing (XY, YX, O1TURN,
//!   Valiant, ROMM, PROM, load-balanced static) and minimal adaptive routing;
//! * [`vca`] — virtual-channel allocation (dynamic, static-set,
//!   phase-separated, EDVCA, FAA, explicit tables);
//! * [`router`] — the RC/VA/SA/ST router pipeline with randomized arbitration;
//! * [`rng`] — the per-tile xoshiro256++ stream every random draw comes from;
//! * [`vcbuf`] — the ingress VC buffer: a single-owner flit ring (one thread
//!   drives both of its ends; see its ownership contract);
//! * [`boundary`] — lock-free SPSC flit/credit mailboxes for links cut
//!   between two shards of a partitioned parallel simulation;
//! * [`bridge`] / [`agent`] — the packet-level interface between routers and
//!   attached cores, injectors and memory controllers;
//! * [`network`] — assembly plus a single-threaded reference simulator;
//! * [`ideal`] — the congestion-oblivious baseline network model;
//! * [`stats`] — per-tile statistics that travel with the flits.
//!
//! # Example
//!
//! ```
//! use hornet_net::config::NetworkConfig;
//! use hornet_net::geometry::Geometry;
//! use hornet_net::network::Network;
//! use hornet_net::routing::{FlowSpec, RoutingKind};
//! use hornet_net::ids::NodeId;
//!
//! let flows = vec![FlowSpec::pair(NodeId::new(0), NodeId::new(8), 9)];
//! let config = NetworkConfig::new(Geometry::mesh2d(3, 3))
//!     .with_routing(RoutingKind::Xy)
//!     .with_flows(flows);
//! let network = Network::new(&config, 42).expect("valid configuration");
//! assert_eq!(network.node_count(), 9);
//! ```

pub mod agent;
pub mod boundary;
pub mod bridge;
pub mod codec;
pub mod config;
pub mod flit;
pub mod geometry;
pub mod ideal;
pub mod ids;
pub mod kernel;
pub mod network;
pub mod payload;
pub mod rng;
pub mod router;
pub mod routing;
pub mod spsc;
pub mod stats;
pub mod vca;
pub mod vcbuf;

pub use agent::{NodeAgent, NodeIo};
pub use config::NetworkConfig;
pub use flit::{DeliveredPacket, Flit, Packet};
pub use geometry::Geometry;
pub use ids::{Cycle, FlowId, NodeId, PacketId, PortId, VcId};
pub use kernel::{KernelMode, MeshKernel, StageTimes, Stepper};
pub use network::{Network, NetworkNode};
pub use routing::{FlowSpec, RoutingKind};
pub use stats::NetworkStats;
pub use vca::VcAllocKind;
