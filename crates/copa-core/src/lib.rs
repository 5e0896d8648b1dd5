//! # copa-core
//!
//! The COPA system: ties the channel, PHY, precoding, allocation and MAC
//! substrates into the strategy engine of the paper's Figure 8.
//!
//! * [`error`] -- the workspace-wide [`CopaError`] failure taxonomy.
//! * [`scenario`] -- CSI estimation: what the APs actually know.
//! * [`strategy`] -- the strategy menu and outcome bookkeeping.
//! * [`engine`] -- evaluate all strategies on a topology (estimating its
//!   CSI, or under caller-supplied estimates), pick the best
//!   (aggregate-max or incentive-compatible "fair"), including the
//!   overconstrained shut-down-antenna path and COPA+ mercury variants.
//! * [`session`] -- long-lived per-cell coordination state: CSI aging and
//!   the persistent engine session the event-driven daemon drives.
//! * [`coordinator`] -- the ITS protocol driven end-to-end: two AP objects
//!   exchanging real encoded frames, the REQ carrying compressed CSI and
//!   the ACK the caller's decision.
//! * [`cluster`] -- interference graphs over N-cell campuses and the
//!   deterministic greedy clustering/coloring that carves them into
//!   coordination units. `copa_sim::campus` evaluates the units: pairs
//!   run the pair engine directly, and clusters of three or more rotate
//!   leaders over pairwise ITS exchanges (the paper's section 3.1
//!   future work).
//! * [`telemetry`] -- the engine/coordinator metric names and the
//!   [`EngineObs`] observation context over `copa-obs` primitives.

#![warn(missing_docs)]

pub mod cluster;
pub mod coordinator;
pub mod engine;
pub mod error;
pub mod scenario;
pub mod session;
pub mod strategy;
pub mod telemetry;

pub use cluster::{cluster_greedy, greedy_coloring, ClusterStats, Clustering, InterferenceGraph};
pub use engine::{DecoderMode, Engine, EngineWorkspace, EvalInput, EvalRequest, Evaluation};
pub use error::{CopaError, WireFault};
pub use scenario::{prepare, prepare_into, ScenarioParams, ScenarioView};
pub use session::{CellSession, CsiAgeState, SessionState};
pub use strategy::{Outcome, OutcomeVec, Strategy};
pub use telemetry::{EngineMetrics, EngineObs, ExchangeMetrics, ExchangeObs};
