//! # provenance-workflows
//!
//! A complete provenance-management platform for scientific workflows — a
//! from-scratch Rust realization of the system design space surveyed in
//! *Provenance and Scientific Workflows: Challenges and Opportunities*
//! (Davidson & Freire, SIGMOD 2008).
//!
//! The platform spans the whole tutorial:
//!
//! | Area (paper §) | Crate | Re-exported as |
//! |---|---|---|
//! | workflow model (§2.1) | `wf-model` | [`model`] |
//! | dataflow engine (§2.1) | `wf-engine` | [`engine`] |
//! | provenance capture/model/causality (§2.2) | `prov-core` | [`provenance`] |
//! | storage backends (§2.2) | `prov-store` | [`store`] |
//! | querying / PQL (§2.2) | `prov-query` | [`query`] |
//! | evolution + analogy (§2.3, Fig. 2) | `prov-evolution` | [`evolution`] |
//! | interoperability / OPM / Challenge (§2.4) | `prov-interop` | [`interop`] |
//! | telemetry: spans, metrics, profiling (§2.4) | `prov-telemetry` | [`telemetry`] |
//! | social analysis / mining (§2.3–2.4) | `prov-social` | [`social`] |
//!
//! ## Quickstart
//!
//! ```
//! use provenance_workflows::prelude::*;
//!
//! // 1. Author a workflow (prospective provenance).
//! let mut b = WorkflowBuilder::new(1, "demo");
//! let load = b.add("LoadVolume");
//! let hist = b.add("Histogram");
//! b.connect(load, "grid", hist, "data");
//! b.param(hist, "bins", 16i64);
//! let wf = b.build();
//!
//! // 2. Run it with provenance capture.
//! let exec = Executor::new(standard_registry());
//! let mut capture = ProvenanceCapture::new(CaptureLevel::Fine);
//! let result = exec.run_observed(&wf, &mut capture).unwrap();
//! let retro = capture.take(result.exec).unwrap();
//!
//! // 3. Ask provenance questions.
//! let table = retro.produced(hist, "table").unwrap();
//! let graph = CausalityGraph::from_retrospective(&retro);
//! assert!(graph.derived_from(
//!     table.hash,
//!     retro.produced(load, "grid").unwrap().hash,
//! ));
//! ```

/// Workflow specification model (`wf-model`).
pub mod model {
    pub use wf_model::*;
}

/// Dataflow execution engine (`wf-engine`).
pub mod engine {
    pub use wf_engine::*;
}

/// Provenance capture, models, causality, OPM, views (`prov-core`).
pub mod provenance {
    pub use prov_core::*;
}

/// Storage backends (`prov-store`).
pub mod store {
    pub use prov_store::*;
}

/// PQL and query-by-example (`prov-query`).
pub mod query {
    pub use prov_query::*;
}

/// Version trees, diff, analogy (`prov-evolution`).
pub mod evolution {
    pub use prov_evolution::*;
}

/// Dialects, OPM integration, the Provenance Challenge (`prov-interop`).
pub mod interop {
    pub use prov_interop::*;
}

/// Collaboratory, mining, recommendations (`prov-social`).
pub mod social {
    pub use prov_social::*;
}

/// Spans, metrics, profiling, trace export (`prov-telemetry`).
pub mod telemetry {
    pub use prov_telemetry::*;
}

/// Distributed capture probes, logical clocks, report stitching
/// (`prov-probe`).
pub mod probe {
    pub use prov_probe::*;
}

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use prov_core::{check_resume, ResumeCheck};
    pub use prov_core::{graph_signature, stitch_provenance, stitch_reports, StitchedProvenance};
    pub use prov_core::{
        Annotation, AnnotationStore, CaptureLevel, CausalityGraph, OpmGraph, ProspectiveProvenance,
        ProvNodeRef, ProvenanceBundle, ProvenanceCapture, RetrospectiveProvenance, Subject,
        UserView, ViewedGraph,
    };
    pub use prov_evolution::{apply_by_analogy, diff_workflows, Action, VersionId, VersionTree};
    pub use prov_interop::{integrate, run_challenge};
    pub use prov_probe::{Collector, LogicalClock, Probe, ProbeId};
    pub use prov_query::{
        analyze, analyze_optimized, analyze_store, eval_cached, eval_optimized,
        optimize as optimize_pql, parse as parse_pql, Optimization, Plan, PqlEngine, QueryCache,
        QueryObserver, QueryResult, ShardedEngine, SlowQueryLog,
    };
    pub use prov_social::{Collaboratory, FragmentMiner};
    pub use prov_store::{
        GraphStore, LogStore, ProvenanceStore, RelStore, StatsSnapshot, StoreStats, TripleStore,
    };
    pub use prov_telemetry::{
        profile_result, profile_retro, MetricsObserver, RunProfile, SpanCollector, Telemetry, Trace,
    };
    pub use wf_engine::{
        standard_registry, Deadline, DistribOptions, DistributedRun, ErrorClass, ExecId,
        ExecPolicy, Executor, FanoutObserver, FaultAction, FaultPlan, RetryPolicy, RunStatus,
        Value,
    };
    pub use wf_model::{
        validate, DataType, ModuleCatalog, ModuleKind, NodeId, ParamValue, Workflow,
        WorkflowBuilder, WorkflowId,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let (wf, nodes) = wf_engine::synth::figure1_workflow(1);
        let exec = Executor::new(standard_registry());
        let mut cap = ProvenanceCapture::new(CaptureLevel::Fine);
        let r = exec.run_observed(&wf, &mut cap).unwrap();
        let retro = cap.take(r.exec).unwrap();
        let mut store = GraphStore::new();
        store.ingest(&retro);
        let grid = retro.produced(nodes.load, "grid").unwrap().hash;
        assert_eq!(store.generators(grid).len(), 1);
        let mut pql = PqlEngine::new();
        pql.ingest(&retro);
        assert_eq!(pql.eval("count runs").unwrap(), QueryResult::Count(8));
    }
}
