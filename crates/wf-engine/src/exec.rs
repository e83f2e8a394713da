//! The execution drivers: sequential and parallel dataflow evaluation.
//!
//! Both drivers obey the same contract: modules run when all of their input
//! values are available; each lifecycle transition is reported to the
//! observer; failures mark the failing node `Failed` and everything
//! downstream of it `Skipped` (partial results are kept — a failed run still
//! has provenance, which is often when provenance matters most).

use crate::cache::{cache_key, RunCache};
use crate::error::ExecError;
use crate::event::{now_micros, now_millis, EngineEvent, ExecObserver, ValueMeta};
use crate::fault::{FaultAction, FaultPlan};
use crate::policy::{Deadline, ExecPolicy};
use crate::registry::{ExecInput, ModuleExec, ModuleRegistry, Outputs};
use crate::value::Value;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};
use wf_model::{NodeId, Workflow};

/// Identifier of one workflow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecId(pub u64);

impl fmt::Display for ExecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run{}", self.0)
    }
}

/// Outcome of a module run or a whole workflow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunStatus {
    /// Completed normally.
    Succeeded,
    /// The module body (or some module of the workflow) failed.
    Failed,
    /// Not executed because an upstream dependency failed.
    Skipped,
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Succeeded => write!(f, "succeeded"),
            RunStatus::Failed => write!(f, "failed"),
            RunStatus::Skipped => write!(f, "skipped"),
        }
    }
}

/// Record of one module run inside an execution.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRunRecord {
    /// The node.
    pub node: NodeId,
    /// Module identity `name@version`.
    pub identity: String,
    /// Outcome.
    pub status: RunStatus,
    /// Module-body duration in microseconds (0 for skipped runs).
    pub elapsed_micros: u64,
    /// Whether outputs were served from the memoization cache.
    pub from_cache: bool,
    /// Failure message, if the module failed.
    pub error: Option<String>,
    /// Number of body attempts made (1 for ordinary runs and cache hits,
    /// 0 for skipped nodes, >1 when a retry policy re-attempted the body).
    pub attempts: u32,
    /// When the module run began, on the process-monotonic microsecond
    /// clock ([`now_micros`]). Recorded directly on the record so a run is
    /// profilable without any capture subscriber attached.
    pub started_micros: u64,
    /// When the module run ended, on the same monotonic clock. Always
    /// `>= started_micros`; for skipped nodes both carry the skip instant.
    pub finished_micros: u64,
}

impl NodeRunRecord {
    /// Wall-clock extent of this module run in microseconds (monotonic
    /// end minus start — includes retries, backoff waits, and cache
    /// lookups, unlike the body-only `elapsed_micros`).
    pub fn wall_micros(&self) -> u64 {
        self.finished_micros.saturating_sub(self.started_micros)
    }
}

/// The result of running a workflow.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// The run identifier.
    pub exec: ExecId,
    /// Overall outcome: `Succeeded` iff every module succeeded.
    pub status: RunStatus,
    /// Per-node records.
    pub node_runs: BTreeMap<NodeId, NodeRunRecord>,
    /// Every value produced on any output port.
    pub values: BTreeMap<(NodeId, String), Value>,
    /// Wall-clock duration of the whole run in microseconds.
    pub elapsed_micros: u64,
    /// When this run resumed an earlier failed run, that run's id.
    pub resumed_from: Option<ExecId>,
}

impl ExecutionResult {
    /// The value produced on `node`'s output `port`, if the node ran.
    pub fn output(&self, node: NodeId, port: &str) -> Option<&Value> {
        self.values.get(&(node, port.to_string()))
    }

    /// Did every module succeed?
    pub fn succeeded(&self) -> bool {
        self.status == RunStatus::Succeeded
    }

    /// Number of module runs served from cache.
    pub fn cache_hits(&self) -> usize {
        self.node_runs.values().filter(|r| r.from_cache).count()
    }

    /// A deterministic digest of everything *reproducible* about this run:
    /// per-node statuses, identities, attempt counts, cache provenance,
    /// error messages, and the content hashes of every produced value.
    /// Wall-clock fields (`elapsed_micros`, `started_micros`,
    /// `finished_micros`) and run identity (`exec`, `resumed_from`) are
    /// excluded, so two runs of the same workflow under the same seeds —
    /// sequential or parallel — fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::value::ContentHasher::new();
        h.update_u64(match self.status {
            RunStatus::Succeeded => 0,
            RunStatus::Failed => 1,
            RunStatus::Skipped => 2,
        });
        h.update_u64(self.node_runs.len() as u64);
        for (node, r) in &self.node_runs {
            h.update_u64(node.0);
            h.update(r.identity.as_bytes());
            h.update_u64(match r.status {
                RunStatus::Succeeded => 0,
                RunStatus::Failed => 1,
                RunStatus::Skipped => 2,
            });
            h.update_u64(u64::from(r.from_cache));
            h.update_u64(u64::from(r.attempts));
            h.update(r.error.as_deref().unwrap_or("").as_bytes());
        }
        h.update_u64(self.values.len() as u64);
        for ((node, port), v) in &self.values {
            h.update_u64(node.0);
            h.update(port.as_bytes());
            h.update_u64(v.content_hash());
        }
        h.finish()
    }
}

/// Observer that discards everything (capture level "Off").
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ExecObserver for NullObserver {
    fn on_event(&mut self, _event: &EngineEvent) {}
}

/// The workflow executor.
pub struct Executor {
    registry: Arc<ModuleRegistry>,
    cache: Option<Arc<Mutex<RunCache>>>,
    policy: ExecPolicy,
    faults: Option<FaultPlan>,
    next_exec: AtomicU64,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("registry", &self.registry)
            .field("cache", &self.cache.is_some())
            .field("policy", &self.policy)
            .field("faults", &self.faults.as_ref().map(|p| p.len()))
            .finish()
    }
}

impl Executor {
    /// An executor over a registry, without memoization.
    pub fn new(registry: ModuleRegistry) -> Self {
        Self {
            registry: Arc::new(registry),
            cache: None,
            policy: ExecPolicy::new(),
            faults: None,
            next_exec: AtomicU64::new(0),
        }
    }

    /// Number this executor's executions from `first` instead of 0. A
    /// process whose provenance leaves it starts from a value no other
    /// process is likely to pick, so execution ids do not collide.
    pub fn with_first_exec(self, first: u64) -> Self {
        self.next_exec.store(first, Ordering::Relaxed);
        self
    }

    /// Enable memoization with a cache bounded to `capacity` module runs.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(Arc::new(Mutex::new(RunCache::new(capacity))));
        self
    }

    /// Set the fault-tolerance policy (retries, backoff, deadlines).
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Install a fault-injection plan (testing only): scheduled faults are
    /// injected into module bodies exactly as the plan dictates.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The active fault-tolerance policy.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// The registry backing this executor.
    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Cache statistics, if memoization is enabled.
    pub fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.cache.as_ref().map(|c| lock(c).stats())
    }

    /// Clear the memoization cache.
    pub fn clear_cache(&self) {
        if let Some(c) = &self.cache {
            lock(c).clear();
        }
    }

    pub(crate) fn allocate_exec(&self) -> ExecId {
        ExecId(self.next_exec.fetch_add(1, Ordering::Relaxed))
    }

    /// Prime the memoization cache from a previous execution of `wf`:
    /// every successful module run of `previous` becomes a cache entry, so
    /// a subsequent run of an *edited* copy of `wf` re-executes only the
    /// nodes downstream of the change — partial re-execution, driven
    /// purely by provenance identity. Returns the number of runs primed.
    ///
    /// No-op (returning 0) when the executor has no cache.
    pub fn warm_cache_from(&self, wf: &Workflow, previous: &ExecutionResult) -> usize {
        let Some(cache) = &self.cache else {
            return 0;
        };
        let mut primed = 0;
        for (node_id, record) in &previous.node_runs {
            if record.status != RunStatus::Succeeded {
                continue;
            }
            let Ok(node) = wf.node(*node_id) else {
                continue;
            };
            let Ok(params) =
                self.registry
                    .effective_params(&node.module, node.version, &node.params)
            else {
                continue;
            };
            // Reconstruct the input bindings this run saw.
            let mut inputs: BTreeMap<String, u64> = BTreeMap::new();
            for conn in wf.inputs_of(*node_id) {
                if let Some(v) = previous
                    .values
                    .get(&(conn.from.node, conn.from.port.clone()))
                {
                    inputs.insert(conn.to.port.clone(), v.content_hash());
                }
            }
            let key = cache_key(
                &record.identity,
                params.iter().map(|(k, v)| (k, v.render())),
                inputs.iter().map(|(k, h)| (k, *h)),
            );
            let outputs: Vec<(String, Value)> = previous
                .values
                .iter()
                .filter(|((n, _), _)| n == node_id)
                .map(|((_, port), v)| (port.clone(), v.clone()))
                .collect();
            if !outputs.is_empty() {
                lock(cache).insert(key, outputs);
                primed += 1;
            }
        }
        primed
    }

    /// Run a workflow, discarding events.
    pub fn run(&self, wf: &Workflow) -> Result<ExecutionResult, ExecError> {
        self.run_observed(wf, &mut NullObserver)
    }

    /// Run a workflow sequentially in topological order, reporting every
    /// lifecycle event to `observer`.
    pub fn run_observed(
        &self,
        wf: &Workflow,
        observer: &mut dyn ExecObserver,
    ) -> Result<ExecutionResult, ExecError> {
        self.run_inner(wf, observer, None)
    }

    /// Resume a failed run sequentially: successful module results from
    /// `previous` are replayed through the memoization cache, so only
    /// failed and skipped nodes re-execute. The resumed run's provenance
    /// links back to `previous.exec` via [`EngineEvent::RunResumed`] and
    /// [`ExecutionResult::resumed_from`].
    ///
    /// Requires a cache ([`Executor::with_cache`]) to hold the checkpoint.
    pub fn resume(
        &self,
        wf: &Workflow,
        previous: &ExecutionResult,
        observer: &mut dyn ExecObserver,
    ) -> Result<ExecutionResult, ExecError> {
        let reused = self.prepare_resume(wf, previous)?;
        self.run_inner(wf, observer, Some((previous.exec, reused)))
    }

    /// Resume a failed run with the parallel driver; see
    /// [`Executor::resume`].
    pub fn resume_parallel(
        &self,
        wf: &Workflow,
        previous: &ExecutionResult,
        threads: usize,
        observer: &mut dyn ExecObserver,
    ) -> Result<ExecutionResult, ExecError> {
        let reused = self.prepare_resume(wf, previous)?;
        self.run_parallel_inner(wf, threads, observer, Some((previous.exec, reused)))
    }

    fn prepare_resume(
        &self,
        wf: &Workflow,
        previous: &ExecutionResult,
    ) -> Result<usize, ExecError> {
        if self.cache.is_none() {
            return Err(ExecError::InvalidWorkflow(
                "resume requires a memoization cache (Executor::with_cache)".into(),
            ));
        }
        Ok(self.warm_cache_from(wf, previous))
    }

    fn run_inner(
        &self,
        wf: &Workflow,
        observer: &mut dyn ExecObserver,
        resumed: Option<(ExecId, usize)>,
    ) -> Result<ExecutionResult, ExecError> {
        let order = wf
            .topo_nodes()
            .ok_or_else(|| ExecError::InvalidWorkflow("workflow has a cycle".into()))?;
        let exec = self.allocate_exec();
        let started = Instant::now();
        emit_run_started(observer, exec, wf, resumed);

        let mut values: BTreeMap<(NodeId, String), Value> = BTreeMap::new();
        let mut records: BTreeMap<NodeId, NodeRunRecord> = BTreeMap::new();
        let mut failed_nodes: Vec<NodeId> = Vec::new();

        for node_id in order {
            let upstream_failed = wf.inputs_of(node_id).any(|c| {
                records
                    .get(&c.from.node)
                    .map(|r| r.status != RunStatus::Succeeded)
                    .unwrap_or(false)
            });
            if upstream_failed {
                let node = wf.node(node_id)?;
                records.insert(
                    node_id,
                    skip_node(observer, exec, node_id, node.kind_identity()),
                );
                continue;
            }
            let record = self.run_node(wf, node_id, exec, &mut values, observer)?;
            if record.status == RunStatus::Failed {
                failed_nodes.push(node_id);
            }
            records.insert(node_id, record);
        }

        let status = if failed_nodes.is_empty() {
            RunStatus::Succeeded
        } else {
            RunStatus::Failed
        };
        emit_run_finished(observer, exec, status);
        Ok(ExecutionResult {
            exec,
            status,
            node_runs: records,
            values,
            elapsed_micros: started.elapsed().as_micros() as u64,
            resumed_from: resumed.map(|(from, _)| from),
        })
    }

    /// Execute one node: bind inputs, consult the cache, run the body under
    /// the node's retry policy and deadline, route outputs. Returns the run
    /// record; produced values land in `values`.
    pub(crate) fn run_node(
        &self,
        wf: &Workflow,
        node_id: NodeId,
        exec: ExecId,
        values: &mut BTreeMap<(NodeId, String), Value>,
        observer: &mut dyn ExecObserver,
    ) -> Result<NodeRunRecord, ExecError> {
        let node = wf.node(node_id)?;
        let identity = node.kind_identity();
        let params = self
            .registry
            .effective_params(&node.module, node.version, &node.params)?;

        // Bind inputs from upstream outputs.
        let mut inputs: BTreeMap<String, Value> = BTreeMap::new();
        for conn in wf.inputs_of(node_id) {
            if let Some(v) = values.get(&(conn.from.node, conn.from.port.clone())) {
                inputs.insert(conn.to.port.clone(), v.clone());
            }
        }

        let started_micros = now_micros();
        observer.on_event(&EngineEvent::ModuleStarted {
            exec,
            node: node_id,
            identity: identity.clone(),
            params: params.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            at_millis: now_millis(),
        });
        for (port, v) in &inputs {
            observer.on_event(&EngineEvent::InputBound {
                exec,
                node: node_id,
                port: port.clone(),
                meta: ValueMeta::of(v, true),
            });
        }

        // Cache lookup.
        let key = cache_key(
            &identity,
            params.iter().map(|(k, v)| (k, v.render())),
            inputs.iter().map(|(k, v)| (k, v.content_hash())),
        );
        if let Some(cache) = &self.cache {
            let lookup_started = Instant::now();
            let hit = lock(cache).get(key);
            observer.on_event(&EngineEvent::CacheChecked {
                exec,
                node: node_id,
                hit: hit.is_some(),
                elapsed_micros: lookup_started.elapsed().as_micros() as u64,
            });
            if let Some(outputs) = hit {
                for (port, v) in &outputs {
                    observer.on_event(&EngineEvent::OutputProduced {
                        exec,
                        node: node_id,
                        port: port.clone(),
                        meta: ValueMeta::of(v, true),
                    });
                    values.insert((node_id, port.clone()), v.clone());
                }
                observer.on_event(&EngineEvent::ModuleFinished {
                    exec,
                    node: node_id,
                    status: RunStatus::Succeeded,
                    elapsed_micros: 0,
                    from_cache: true,
                    error: None,
                });
                return Ok(NodeRunRecord {
                    node: node_id,
                    identity,
                    status: RunStatus::Succeeded,
                    elapsed_micros: 0,
                    from_cache: true,
                    error: None,
                    attempts: 1,
                    started_micros,
                    finished_micros: now_micros(),
                });
            }
        }

        // Run the body under the node's retry policy and deadline.
        let body = self.registry.executor(&identity)?;
        let input = ExecInput {
            node: node_id,
            params,
            inputs,
        };
        // Retry resolution: node override > module-kind hint > workflow-wide.
        let retry = self
            .policy
            .node_retry
            .get(&node_id)
            .or_else(|| self.registry.retry_hint(&identity))
            .unwrap_or(&self.policy.retry);
        let deadline = self.policy.deadline_for(node_id);
        let mut attempt: u32 = 1;
        let mut elapsed_total: u64 = 0;
        loop {
            if attempt > 1 {
                observer.on_event(&EngineEvent::AttemptStarted {
                    exec,
                    node: node_id,
                    attempt,
                });
            }
            let t0 = Instant::now();
            let result = self.execute_attempt(&body, &input, node_id, &identity, attempt, deadline);
            elapsed_total += t0.elapsed().as_micros() as u64;

            let e = match result {
                Ok(outputs) => {
                    let out_vec: Vec<(String, Value)> = outputs
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    for (port, v) in &outputs {
                        observer.on_event(&EngineEvent::OutputProduced {
                            exec,
                            node: node_id,
                            port: port.clone(),
                            meta: ValueMeta::of(v, true),
                        });
                        values.insert((node_id, port.clone()), v.clone());
                    }
                    if let Some(cache) = &self.cache {
                        lock(cache).insert(key, out_vec);
                    }
                    observer.on_event(&EngineEvent::ModuleFinished {
                        exec,
                        node: node_id,
                        status: RunStatus::Succeeded,
                        elapsed_micros: elapsed_total,
                        from_cache: false,
                        error: None,
                    });
                    return Ok(NodeRunRecord {
                        node: node_id,
                        identity,
                        status: RunStatus::Succeeded,
                        elapsed_micros: elapsed_total,
                        from_cache: false,
                        error: None,
                        attempts: attempt,
                        started_micros,
                        finished_micros: now_micros(),
                    });
                }
                Err(e) => e,
            };

            if let ExecError::DeadlineExceeded { limit_micros, .. } = &e {
                observer.on_event(&EngineEvent::ModuleTimedOut {
                    exec,
                    node: node_id,
                    attempt,
                    limit_micros: *limit_micros,
                });
            }
            let will_retry = retry.should_retry(attempt, e.class());
            observer.on_event(&EngineEvent::AttemptFailed {
                exec,
                node: node_id,
                attempt,
                error: e.to_string(),
                will_retry,
            });
            if !will_retry {
                observer.on_event(&EngineEvent::ModuleFinished {
                    exec,
                    node: node_id,
                    status: RunStatus::Failed,
                    elapsed_micros: elapsed_total,
                    from_cache: false,
                    error: Some(e.to_string()),
                });
                return Ok(NodeRunRecord {
                    node: node_id,
                    identity,
                    status: RunStatus::Failed,
                    elapsed_micros: elapsed_total,
                    from_cache: false,
                    error: Some(e.to_string()),
                    attempts: attempt,
                    started_micros,
                    finished_micros: now_micros(),
                });
            }
            let delay = retry.backoff_micros(self.policy.jitter_seed, node_id, attempt);
            observer.on_event(&EngineEvent::BackoffStarted {
                exec,
                node: node_id,
                next_attempt: attempt + 1,
                delay_micros: delay,
            });
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            attempt += 1;
        }
    }

    /// Run one attempt of a module body: apply any injected fault, isolate
    /// panics, and enforce the deadline (by running the body on a watchdog
    /// thread — a timed-out body is abandoned, not cancelled).
    fn execute_attempt(
        &self,
        body: &Arc<dyn ModuleExec>,
        input: &ExecInput,
        node_id: NodeId,
        identity: &str,
        attempt: u32,
        deadline: Option<Deadline>,
    ) -> Result<Outputs, ExecError> {
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.action(node_id, attempt))
            .cloned();
        if let Some(FaultAction::Fail { message }) = &fault {
            return Err(ExecError::ModuleFailed {
                node: node_id,
                identity: identity.to_string(),
                message: message.clone(),
            });
        }
        match deadline {
            None => catch_unwind(AssertUnwindSafe(|| {
                attempt_body(body.as_ref(), input, fault.as_ref())
            }))
            .unwrap_or_else(|payload| {
                Err(ExecError::WorkerPanicked {
                    node: Some(node_id),
                    message: panic_message(&*payload),
                })
            }),
            Some(d) => {
                let (tx, rx) = std::sync::mpsc::channel();
                let body = Arc::clone(body);
                let input = input.clone();
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        attempt_body(body.as_ref(), &input, fault.as_ref())
                    }));
                    let _ = tx.send(outcome);
                });
                match rx.recv_timeout(Duration::from_micros(d.limit_micros)) {
                    Ok(Ok(result)) => result,
                    Ok(Err(payload)) => Err(ExecError::WorkerPanicked {
                        node: Some(node_id),
                        message: panic_message(&*payload),
                    }),
                    Err(_) => Err(ExecError::DeadlineExceeded {
                        node: node_id,
                        limit_micros: d.limit_micros,
                    }),
                }
            }
        }
    }

    /// Run a workflow with up to `threads` modules executing concurrently.
    ///
    /// Same contract as [`Executor::run_observed`]; events from concurrent
    /// modules interleave, but each module's own events stay ordered.
    pub fn run_parallel(
        &self,
        wf: &Workflow,
        threads: usize,
        observer: &mut dyn ExecObserver,
    ) -> Result<ExecutionResult, ExecError> {
        self.run_parallel_inner(wf, threads, observer, None)
    }

    fn run_parallel_inner(
        &self,
        wf: &Workflow,
        threads: usize,
        observer: &mut dyn ExecObserver,
        resumed: Option<(ExecId, usize)>,
    ) -> Result<ExecutionResult, ExecError> {
        let threads = threads.max(1);
        let (g, ids, index) = wf.digraph();
        if !g.is_dag() {
            return Err(ExecError::InvalidWorkflow("workflow has a cycle".into()));
        }
        let exec = self.allocate_exec();
        let started = Instant::now();

        // Shared mutable state.
        struct Shared {
            values: BTreeMap<(NodeId, String), Value>,
            records: BTreeMap<NodeId, NodeRunRecord>,
            pending: Vec<usize>, // remaining unfinished predecessors
            ready: VecDeque<usize>,
            running: usize,
            done: usize,
        }
        let n = ids.len();
        let mut pending: Vec<usize> = vec![0; n];
        for (i, p) in pending.iter_mut().enumerate() {
            *p = g.predecessors(i).len();
        }
        let ready: VecDeque<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
        let shared = Mutex::new(Shared {
            values: BTreeMap::new(),
            records: BTreeMap::new(),
            pending,
            ready,
            running: 0,
            done: 0,
        });
        let observer = Mutex::new(observer);

        emit_run_started(&mut **lock(&observer), exec, wf, resumed);

        let worker_error: Mutex<Option<ExecError>> = Mutex::new(None);

        /// Forces the drain if a worker unwinds, so its siblings exit
        /// instead of waiting forever on the node it had claimed.
        struct DrainOnUnwind<'a>(&'a Mutex<Shared>, usize);
        impl Drop for DrainOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    lock(self.0).done = self.1;
                }
            }
        }

        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for _ in 0..threads.min(n.max(1)) {
                workers.push(scope.spawn(|| loop {
                    let _drain = DrainOnUnwind(&shared, n);
                    // Claim a ready node or decide we are finished.
                    let claimed = {
                        let mut s = lock(&shared);
                        if s.done >= n {
                            None
                        } else if let Some(i) = s.ready.pop_front() {
                            s.running += 1;
                            Some(i)
                        } else if s.running == 0 {
                            // No work, nothing running: only possible when
                            // done == n, but guard against lost wakeups.
                            None
                        } else {
                            // Busy-wait politely for more work.
                            drop(s);
                            std::thread::yield_now();
                            continue;
                        }
                    };
                    let Some(i) = claimed else { break };
                    let node_id = ids[i];

                    // Determine skip-vs-run from predecessor records.
                    let upstream_failed = {
                        let s = lock(&shared);
                        g.predecessors(i).iter().any(|&p| {
                            s.records
                                .get(&ids[p])
                                .map(|r| r.status != RunStatus::Succeeded)
                                .unwrap_or(true)
                        })
                    };

                    let record = if upstream_failed {
                        let identity = wf
                            .node(node_id)
                            .map(|nd| nd.kind_identity())
                            .unwrap_or_default();
                        skip_node(&mut **lock(&observer), exec, node_id, identity)
                    } else {
                        // Copy the inputs we need, then run without holding
                        // the state lock (module bodies can be slow).
                        let mut local_values = {
                            let s = lock(&shared);
                            let mut m = BTreeMap::new();
                            for conn in wf.inputs_of(node_id) {
                                let k = (conn.from.node, conn.from.port.clone());
                                if let Some(v) = s.values.get(&k) {
                                    m.insert(k, v.clone());
                                }
                            }
                            m
                        };
                        let mut obs_guard = ObserverProxy { inner: &observer };
                        match self.run_node(wf, node_id, exec, &mut local_values, &mut obs_guard) {
                            Ok(rec) => {
                                let mut s = lock(&shared);
                                for ((nid, port), v) in local_values {
                                    if nid == node_id {
                                        s.values.insert((nid, port), v);
                                    }
                                }
                                rec
                            }
                            Err(e) => {
                                *lock(&worker_error) = Some(e);
                                let mut s = lock(&shared);
                                s.running -= 1;
                                s.done = n; // force drain
                                break;
                            }
                        }
                    };

                    let mut s = lock(&shared);
                    s.records.insert(node_id, record);
                    s.running -= 1;
                    s.done += 1;
                    for &succ in g.successors(i) {
                        s.pending[succ] -= 1;
                        if s.pending[succ] == 0 {
                            s.ready.push_back(succ);
                        }
                    }
                }));
            }
            join_workers(workers)
        })?;

        if let Some(e) = worker_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        let shared = shared.into_inner().unwrap_or_else(|e| e.into_inner());
        let _ = index;
        let status = if shared
            .records
            .values()
            .all(|r| r.status == RunStatus::Succeeded)
        {
            RunStatus::Succeeded
        } else {
            RunStatus::Failed
        };
        emit_run_finished(&mut **lock(&observer), exec, status);
        Ok(ExecutionResult {
            exec,
            status,
            node_runs: shared.records,
            values: shared.values,
            elapsed_micros: started.elapsed().as_micros() as u64,
            resumed_from: resumed.map(|(from, _)| from),
        })
    }
}

// ---------------------------------------------------------------------
// Event-emission plumbing shared by the sequential and parallel drivers.
// Both drivers MUST emit the same stream for the same run shape; keeping
// the emission in one place is what guarantees it (and gives telemetry a
// single seam to reason about).
// ---------------------------------------------------------------------

/// Emit the run-started event, plus the resume-lineage event when this run
/// replays an earlier failed run's checkpoint.
fn emit_run_started(
    observer: &mut dyn ExecObserver,
    exec: ExecId,
    wf: &Workflow,
    resumed: Option<(ExecId, usize)>,
) {
    observer.on_event(&EngineEvent::WorkflowStarted {
        exec,
        workflow: wf.id,
        name: wf.name.clone(),
        at_millis: now_millis(),
    });
    if let Some((resumed_from, reused)) = resumed {
        observer.on_event(&EngineEvent::RunResumed {
            exec,
            resumed_from,
            reused,
        });
    }
}

/// Emit the run-finished event.
fn emit_run_finished(observer: &mut dyn ExecObserver, exec: ExecId, status: RunStatus) {
    observer.on_event(&EngineEvent::WorkflowFinished {
        exec,
        status,
        at_millis: now_millis(),
    });
}

/// Record and report one node skipped because an upstream dependency did
/// not succeed: emits the terminal `ModuleFinished { Skipped }` event
/// (skipped nodes never emit `ModuleStarted`) and builds the run record.
pub(crate) fn skip_node(
    observer: &mut dyn ExecObserver,
    exec: ExecId,
    node_id: NodeId,
    identity: String,
) -> NodeRunRecord {
    let at = now_micros();
    observer.on_event(&EngineEvent::ModuleFinished {
        exec,
        node: node_id,
        status: RunStatus::Skipped,
        elapsed_micros: 0,
        from_cache: false,
        error: None,
    });
    NodeRunRecord {
        node: node_id,
        identity,
        status: RunStatus::Skipped,
        elapsed_micros: 0,
        from_cache: false,
        error: None,
        attempts: 0,
        started_micros: at,
        finished_micros: at,
    }
}

/// Adapter letting `run_node` (which takes `&mut dyn ExecObserver`) publish
/// through the parallel driver's mutex-protected observer.
struct ObserverProxy<'a, 'b> {
    inner: &'a Mutex<&'b mut dyn ExecObserver>,
}

impl ExecObserver for ObserverProxy<'_, '_> {
    fn on_event(&mut self, event: &EngineEvent) {
        lock(self.inner).on_event(event);
    }
}

/// Run a module body, first applying an injected `Delay` or `Panic` fault
/// (a `Delay` runs *inside* the attempt so it counts against the deadline;
/// `Fail` faults are short-circuited by the caller before the body runs).
fn attempt_body(
    body: &dyn ModuleExec,
    input: &ExecInput,
    fault: Option<&FaultAction>,
) -> Result<Outputs, ExecError> {
    match fault {
        Some(FaultAction::Delay { micros }) => {
            std::thread::sleep(Duration::from_micros(*micros));
        }
        Some(FaultAction::Panic { message }) => panic!("{}", message.clone()),
        _ => {}
    }
    body.execute(input)
}

/// Lock `m`, taking the data even if a panicking holder poisoned it: a
/// panic is reported as `WorkerPanicked`, never as a second panic here.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Join every worker of a scope. A worker that panicked becomes
/// `WorkerPanicked` with its message (the first one's, if several did)
/// instead of re-panicking the scope.
pub(crate) fn join_workers(workers: Vec<ScopedJoinHandle<'_, ()>>) -> Result<(), ExecError> {
    let mut panicked = None;
    for worker in workers {
        if let Err(payload) = worker.join() {
            panicked.get_or_insert(payload);
        }
    }
    match panicked {
        None => Ok(()),
        Some(payload) => Err(ExecError::WorkerPanicked {
            node: None,
            message: panic_message(&*payload),
        }),
    }
}

/// Render a panic payload: panics carry `&str` or `String` payloads in
/// practice; anything else becomes an opaque marker.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RecordingObserver;
    use crate::registry::Outputs;
    use wf_model::{ModuleKind, ParamSpec, PortSpec, WorkflowBuilder};

    fn test_registry() -> ModuleRegistry {
        let mut r = ModuleRegistry::new();
        r.register(
            ModuleKind::new("Const")
                .output(PortSpec::required("out", wf_model::DataType::Integer))
                .param(ParamSpec::new("value", 1i64)),
            |input: &ExecInput| {
                let mut out = Outputs::new();
                out.insert("out".into(), Value::Int(input.param_i64("value")?));
                Ok(out)
            },
        );
        r.register(
            ModuleKind::new("Add")
                .input(PortSpec::required("a", wf_model::DataType::Integer))
                .input(PortSpec::required("b", wf_model::DataType::Integer))
                .output(PortSpec::required("out", wf_model::DataType::Integer)),
            |input: &ExecInput| {
                let a = input.input("a")?.as_i64().unwrap_or(0);
                let b = input.input("b")?.as_i64().unwrap_or(0);
                let mut out = Outputs::new();
                out.insert("out".into(), Value::Int(a + b));
                Ok(out)
            },
        );
        r.register(
            ModuleKind::new("Fail")
                .input(PortSpec::optional("in", wf_model::DataType::Any))
                .output(PortSpec::required("out", wf_model::DataType::Integer)),
            |input: &ExecInput| {
                Err(ExecError::ModuleFailed {
                    node: input.node,
                    identity: "Fail@1".into(),
                    message: "intentional".into(),
                })
            },
        );
        r
    }

    fn add_workflow() -> (wf_model::Workflow, NodeId, NodeId, NodeId) {
        let mut b = WorkflowBuilder::new(1, "add");
        let x = b.add("Const");
        let y = b.add("Const");
        let s = b.add("Add");
        b.param(x, "value", 20i64)
            .param(y, "value", 22i64)
            .connect(x, "out", s, "a")
            .connect(y, "out", s, "b");
        (b.build(), x, y, s)
    }

    #[test]
    fn sequential_run_computes_dataflow() {
        let (wf, _, _, s) = add_workflow();
        let exec = Executor::new(test_registry());
        let result = exec.run(&wf).unwrap();
        assert!(result.succeeded());
        assert_eq!(result.output(s, "out"), Some(&Value::Int(42)));
        assert_eq!(result.node_runs.len(), 3);
    }

    #[test]
    fn executions_are_numbered_from_the_first_id() {
        let (wf, _, _, _) = add_workflow();
        let counted = Executor::new(test_registry());
        assert_eq!(counted.run(&wf).unwrap().exec, ExecId(0));
        let first = 1 << 40;
        let minted = Executor::new(test_registry()).with_first_exec(first);
        assert_eq!(minted.run(&wf).unwrap().exec, ExecId(first));
        assert_eq!(minted.run(&wf).unwrap().exec, ExecId(first + 1));
    }

    #[test]
    fn events_cover_full_lifecycle() {
        let (wf, _, _, _) = add_workflow();
        let exec = Executor::new(test_registry());
        let mut obs = RecordingObserver::default();
        exec.run_observed(&wf, &mut obs).unwrap();
        let starts = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::ModuleStarted { .. }))
            .count();
        let outputs = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::OutputProduced { .. }))
            .count();
        let inputs = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::InputBound { .. }))
            .count();
        assert_eq!(starts, 3);
        assert_eq!(outputs, 3);
        assert_eq!(inputs, 2, "Add has two bound inputs");
        assert!(matches!(
            obs.events.first(),
            Some(EngineEvent::WorkflowStarted { .. })
        ));
        assert!(matches!(
            obs.events.last(),
            Some(EngineEvent::WorkflowFinished {
                status: RunStatus::Succeeded,
                ..
            })
        ));
    }

    #[test]
    fn failure_skips_downstream_and_keeps_partials() {
        let mut b = WorkflowBuilder::new(1, "failing");
        let ok = b.add("Const");
        let bad = b.add("Fail");
        let sum = b.add("Add");
        b.connect(ok, "out", sum, "a").connect(bad, "out", sum, "b");
        let wf = b.build();
        let exec = Executor::new(test_registry());
        let result = exec.run(&wf).unwrap();
        assert_eq!(result.status, RunStatus::Failed);
        assert_eq!(result.node_runs[&bad].status, RunStatus::Failed);
        assert!(result.node_runs[&bad]
            .error
            .as_deref()
            .unwrap()
            .contains("intentional"));
        assert_eq!(result.node_runs[&sum].status, RunStatus::Skipped);
        assert_eq!(result.node_runs[&ok].status, RunStatus::Succeeded);
        assert!(result.output(ok, "out").is_some(), "partial value kept");
    }

    #[test]
    fn cache_serves_second_run() {
        let (wf, _, _, s) = add_workflow();
        let exec = Executor::new(test_registry()).with_cache(64);
        let r1 = exec.run(&wf).unwrap();
        assert_eq!(r1.cache_hits(), 0);
        let r2 = exec.run(&wf).unwrap();
        assert_eq!(r2.cache_hits(), 3, "all three modules memoized");
        assert_eq!(r2.output(s, "out"), Some(&Value::Int(42)));
        let stats = exec.cache_stats().unwrap();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn cache_invalidated_by_param_change() {
        let (wf, x, _, s) = add_workflow();
        let exec = Executor::new(test_registry()).with_cache(64);
        exec.run(&wf).unwrap();
        let mut wf2 = wf.clone();
        wf2.set_param(x, "value", wf_model::ParamValue::Int(100))
            .unwrap();
        let r = exec.run(&wf2).unwrap();
        assert_eq!(r.output(s, "out"), Some(&Value::Int(122)));
        // Const y is cached; Const x and Add must re-run.
        assert_eq!(r.cache_hits(), 1);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let (wf, _, _, s) = add_workflow();
        let exec = Executor::new(test_registry());
        let mut obs = NullObserver;
        let result = exec.run_parallel(&wf, 4, &mut obs).unwrap();
        assert!(result.succeeded());
        assert_eq!(result.output(s, "out"), Some(&Value::Int(42)));
    }

    #[test]
    fn parallel_failure_propagates_skips() {
        let mut b = WorkflowBuilder::new(1, "failing");
        let bad = b.add("Fail");
        let next = b.add("Add");
        let ok = b.add("Const");
        b.connect(bad, "out", next, "a")
            .connect(ok, "out", next, "b");
        let wf = b.build();
        let exec = Executor::new(test_registry());
        let result = exec.run_parallel(&wf, 2, &mut NullObserver).unwrap();
        assert_eq!(result.status, RunStatus::Failed);
        assert_eq!(result.node_runs[&next].status, RunStatus::Skipped);
    }

    #[test]
    fn wide_parallel_fanout_completes() {
        let mut b = WorkflowBuilder::new(1, "wide");
        let srcs: Vec<NodeId> = (0..16).map(|_| b.add("Const")).collect();
        for (i, &s) in srcs.iter().enumerate() {
            b.param(s, "value", i as i64);
        }
        let wf = b.build();
        let exec = Executor::new(test_registry());
        let result = exec.run_parallel(&wf, 4, &mut NullObserver).unwrap();
        assert!(result.succeeded());
        assert_eq!(result.values.len(), 16);
    }

    /// Two unconnected `Meet` nodes. Each body announces itself on a
    /// shared counter, then waits up to 2 s for the other and reports
    /// whether it arrived: both report `true` only if a driver really ran
    /// them at the same time.
    fn rendezvous() -> (Executor, Workflow, [NodeId; 2]) {
        let arrived = Arc::new(AtomicU64::new(0));
        let mut r = ModuleRegistry::new();
        r.register(
            ModuleKind::new("Meet").output(PortSpec::required("met", wf_model::DataType::Boolean)),
            move |_: &ExecInput| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(2);
                while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut out = Outputs::new();
                out.insert(
                    "met".into(),
                    Value::Bool(arrived.load(Ordering::SeqCst) >= 2),
                );
                Ok(out)
            },
        );
        let mut b = WorkflowBuilder::new(1, "rendezvous");
        let nodes = [b.add("Meet"), b.add("Meet")];
        (Executor::new(r), b.build(), nodes)
    }

    #[test]
    fn parallel_driver_runs_independent_modules_at_once() {
        let (exec, wf, nodes) = rendezvous();
        let result = exec.run_parallel(&wf, 2, &mut NullObserver).unwrap();
        for node in nodes {
            assert_eq!(result.output(node, "met"), Some(&Value::Bool(true)));
        }
    }

    #[test]
    fn distributed_driver_runs_sites_at_once() {
        let (exec, wf, nodes) = rendezvous();
        let run = exec
            .run_distributed(&wf, crate::distrib::DistribOptions::new(2))
            .unwrap();
        for node in nodes {
            assert_eq!(run.result.output(node, "met"), Some(&Value::Bool(true)));
        }
    }

    #[test]
    fn panicking_parallel_worker_is_an_error_not_a_hang() {
        // The first ModuleStarted panics inside a worker while its sibling
        // still has work: the sibling must drain, not wait on the claim.
        struct PanicOnce(bool);
        impl ExecObserver for PanicOnce {
            fn on_event(&mut self, event: &EngineEvent) {
                if matches!(event, EngineEvent::ModuleStarted { .. }) && !self.0 {
                    self.0 = true;
                    panic!("observer boom");
                }
            }
        }
        let (wf, ..) = add_workflow();
        let exec = Executor::new(test_registry());
        let err = exec
            .run_parallel(&wf, 2, &mut PanicOnce(false))
            .unwrap_err();
        assert!(
            matches!(&err, ExecError::WorkerPanicked { node: None, message } if message == "observer boom"),
            "{err:?}"
        );
    }

    #[test]
    fn warm_cache_enables_partial_reexecution() {
        // Run once on a plain executor, then warm a cached executor from
        // the result: an edited workflow re-runs only the changed suffix.
        let (wf, x, _, s) = add_workflow();
        let plain = Executor::new(test_registry());
        let previous = plain.run(&wf).unwrap();

        let cached = Executor::new(test_registry()).with_cache(64);
        let primed = cached.warm_cache_from(&wf, &previous);
        assert_eq!(primed, 3);

        // Unchanged workflow: everything comes from the warm cache.
        let r = cached.run(&wf).unwrap();
        assert_eq!(r.cache_hits(), 3);

        // Edit one source parameter: only it and the sum re-run.
        let mut wf2 = wf.clone();
        wf2.set_param(x, "value", wf_model::ParamValue::Int(1))
            .unwrap();
        cached.clear_cache();
        cached.warm_cache_from(&wf, &previous);
        let r = cached.run(&wf2).unwrap();
        assert_eq!(r.cache_hits(), 1, "only the untouched Const is reused");
        assert_eq!(r.output(s, "out"), Some(&Value::Int(23)));
    }

    #[test]
    fn warm_cache_skips_failed_runs() {
        let mut b = WorkflowBuilder::new(1, "partially-failing");
        let ok = b.add("Const");
        let bad = b.add("Fail");
        b.connect(ok, "out", bad, "in");
        let wf = b.build();
        let plain = Executor::new(test_registry());
        let previous = plain.run(&wf).unwrap();
        assert_eq!(previous.status, RunStatus::Failed);

        let cached = Executor::new(test_registry()).with_cache(16);
        // Only the successful Const run is primed.
        assert_eq!(cached.warm_cache_from(&wf, &previous), 1);
    }

    #[test]
    fn warm_cache_without_cache_is_noop() {
        let (wf, ..) = add_workflow();
        let exec = Executor::new(test_registry());
        let previous = exec.run(&wf).unwrap();
        assert_eq!(exec.warm_cache_from(&wf, &previous), 0);
    }

    #[test]
    fn records_carry_monotonic_timestamps_without_capture() {
        // Satellite guarantee: timing is on the record itself, so profiling
        // works with no observer attached at all.
        let (wf, x, y, s) = add_workflow();
        let exec = Executor::new(test_registry());
        let r = exec.run(&wf).unwrap();
        for rec in r.node_runs.values() {
            assert!(rec.finished_micros >= rec.started_micros);
            assert!(rec.wall_micros() >= rec.elapsed_micros / 2, "sane extent");
        }
        // Dataflow order is visible in the timestamps: the sum starts only
        // after both sources finished.
        let sum_start = r.node_runs[&s].started_micros;
        assert!(r.node_runs[&x].finished_micros <= sum_start);
        assert!(r.node_runs[&y].finished_micros <= sum_start);
        // Skipped nodes carry the skip instant on both edges.
        let mut b = WorkflowBuilder::new(1, "failing");
        let bad = b.add("Fail");
        let down = b.add("Add");
        b.connect(bad, "out", down, "a");
        let r = Executor::new(test_registry()).run(&b.build()).unwrap();
        let skip = &r.node_runs[&down];
        assert_eq!(skip.status, RunStatus::Skipped);
        assert_eq!(skip.started_micros, skip.finished_micros);
        assert!(skip.started_micros > 0);
    }

    #[test]
    fn cache_lookups_are_evented() {
        let (wf, ..) = add_workflow();
        let exec = Executor::new(test_registry()).with_cache(64);
        let mut obs = RecordingObserver::default();
        exec.run_observed(&wf, &mut obs).unwrap();
        let misses = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::CacheChecked { hit: false, .. }))
            .count();
        assert_eq!(misses, 3, "every module probed and missed");
        let mut obs = RecordingObserver::default();
        exec.run_observed(&wf, &mut obs).unwrap();
        let hits = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::CacheChecked { hit: true, .. }))
            .count();
        assert_eq!(hits, 3, "second run hits on every module");
        // No cache, no cache events.
        let exec = Executor::new(test_registry());
        let mut obs = RecordingObserver::default();
        exec.run_observed(&wf, &mut obs).unwrap();
        assert!(!obs
            .events
            .iter()
            .any(|e| matches!(e, EngineEvent::CacheChecked { .. })));
    }

    #[test]
    fn exec_ids_are_unique_per_run() {
        let (wf, ..) = add_workflow();
        let exec = Executor::new(test_registry());
        let a = exec.run(&wf).unwrap().exec;
        let b = exec.run(&wf).unwrap().exec;
        assert_ne!(a, b);
    }

    #[test]
    fn missing_executor_surfaces_as_error() {
        let mut b = WorkflowBuilder::new(1, "unknown");
        b.add("Ghost");
        let wf = b.build();
        let exec = Executor::new(test_registry());
        assert!(exec.run(&wf).is_err());
        // The parallel driver surfaces the same error instead of hanging.
        assert!(exec.run_parallel(&wf, 4, &mut NullObserver).is_err());
    }

    use crate::fault::FaultPlan;
    use crate::policy::{Deadline, ExecPolicy, RetryPolicy};

    #[test]
    fn transient_fault_recovers_under_retry_policy() {
        let (wf, x, _, s) = add_workflow();
        let exec = Executor::new(test_registry())
            .with_policy(ExecPolicy::new().with_retry(RetryPolicy::attempts(3)))
            .with_faults(FaultPlan::new().fail_on(x, 1, "flaky network"));
        let mut obs = RecordingObserver::default();
        let result = exec.run_observed(&wf, &mut obs).unwrap();
        assert!(result.succeeded());
        assert_eq!(result.output(s, "out"), Some(&Value::Int(42)));
        assert_eq!(
            result.node_runs[&x].attempts, 2,
            "failed once, then succeeded"
        );
        // Both attempts and the retry decision are visible as events.
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::AttemptFailed { node, attempt: 1, will_retry: true, .. } if *node == x
        )));
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::AttemptStarted { node, attempt: 2, .. } if *node == x
        )));
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::BackoffStarted { node, next_attempt: 2, .. } if *node == x
        )));
    }

    #[test]
    fn permanent_fault_exhausts_attempts_and_fails() {
        let (wf, x, _, s) = add_workflow();
        let exec = Executor::new(test_registry())
            .with_policy(ExecPolicy::new().with_retry(RetryPolicy::attempts(3)))
            .with_faults(FaultPlan::new().fail_always(x, "disk gone"));
        let mut obs = RecordingObserver::default();
        let result = exec.run_observed(&wf, &mut obs).unwrap();
        assert_eq!(result.status, RunStatus::Failed);
        assert_eq!(result.node_runs[&x].attempts, 3, "all attempts consumed");
        assert_eq!(result.node_runs[&s].status, RunStatus::Skipped);
        let failed_attempts = obs
            .events
            .iter()
            .filter(|e| matches!(e, EngineEvent::AttemptFailed { node, .. } if *node == x))
            .count();
        assert_eq!(failed_attempts, 3);
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::AttemptFailed {
                will_retry: false,
                attempt: 3,
                ..
            }
        )));
    }

    #[test]
    fn injected_panic_is_contained_as_worker_panicked() {
        let (wf, x, _, s) = add_workflow();
        let exec =
            Executor::new(test_registry()).with_faults(FaultPlan::new().panic_on(x, 1, "boom"));
        let result = exec.run(&wf).unwrap();
        assert_eq!(result.status, RunStatus::Failed);
        let err = result.node_runs[&x].error.as_deref().unwrap();
        assert!(err.contains("panicked") && err.contains("boom"), "{err}");
        assert_eq!(result.node_runs[&s].status, RunStatus::Skipped);
    }

    #[test]
    fn deadline_abandons_stalled_module() {
        let (wf, x, _, _) = add_workflow();
        let exec = Executor::new(test_registry())
            .with_policy(ExecPolicy::new().with_deadline(Deadline::millis(20)))
            .with_faults(FaultPlan::new().delay_on(x, 1, 500_000));
        let mut obs = RecordingObserver::default();
        let result = exec.run_observed(&wf, &mut obs).unwrap();
        assert_eq!(result.status, RunStatus::Failed);
        let err = result.node_runs[&x].error.as_deref().unwrap();
        assert!(err.contains("deadline"), "{err}");
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::ModuleTimedOut { node, .. } if *node == x
        )));
    }

    #[test]
    fn timeout_retries_when_policy_allows() {
        let (wf, x, _, _) = add_workflow();
        // Stall only the first attempt; the second attempt runs clean.
        let exec = Executor::new(test_registry())
            .with_policy(
                ExecPolicy::new()
                    .with_retry(RetryPolicy::attempts(2))
                    .with_deadline(Deadline::millis(20)),
            )
            .with_faults(FaultPlan::new().delay_on(x, 1, 500_000));
        let result = exec.run(&wf).unwrap();
        assert!(result.succeeded());
        assert_eq!(result.node_runs[&x].attempts, 2);
    }

    #[test]
    fn registry_retry_hint_applies_without_exec_policy() {
        let (wf, x, _, _) = add_workflow();
        let mut registry = test_registry();
        registry.declare_retry("Const@1", RetryPolicy::attempts(2));
        let exec = Executor::new(registry).with_faults(FaultPlan::new().fail_on(x, 1, "flaky"));
        let result = exec.run(&wf).unwrap();
        assert!(result.succeeded(), "kind-level hint retried the fault");
        assert_eq!(result.node_runs[&x].attempts, 2);
    }

    #[test]
    fn failed_runs_are_never_cached_and_retried_success_caches_once() {
        let (wf, x, _, _) = add_workflow();
        let exec = Executor::new(test_registry())
            .with_cache(64)
            .with_policy(ExecPolicy::new().with_retry(RetryPolicy::attempts(2)))
            .with_faults(FaultPlan::new().fail_always(x, "dead"));
        let r1 = exec.run(&wf).unwrap();
        assert_eq!(r1.status, RunStatus::Failed);
        // Re-running must re-attempt the failed node, not serve it cached.
        let r2 = exec.run(&wf).unwrap();
        assert_eq!(r2.status, RunStatus::Failed);
        assert!(
            !r2.node_runs[&x].from_cache,
            "failure never served from cache"
        );
        assert_eq!(r2.node_runs[&x].attempts, 2, "body re-attempted");

        // A retried-then-succeeded module is cached exactly once.
        let exec = Executor::new(test_registry())
            .with_cache(64)
            .with_policy(ExecPolicy::new().with_retry(RetryPolicy::attempts(3)))
            .with_faults(FaultPlan::new().fail_on(x, 1, "flaky"));
        let r1 = exec.run(&wf).unwrap();
        assert!(r1.succeeded());
        assert_eq!(exec.cache_stats().unwrap().misses, 3, "one miss per module");
        let r2 = exec.run(&wf).unwrap();
        assert_eq!(r2.cache_hits(), 3, "second run fully memoized");
        assert_eq!(r2.node_runs[&x].attempts, 1, "cache hits count one attempt");
    }

    #[test]
    fn resume_reexecutes_only_failed_nodes() {
        let (wf, x, y, s) = add_workflow();
        let failing =
            Executor::new(test_registry()).with_faults(FaultPlan::new().fail_always(x, "dead"));
        let previous = failing.run(&wf).unwrap();
        assert_eq!(previous.status, RunStatus::Failed);
        assert_eq!(previous.node_runs[&y].status, RunStatus::Succeeded);
        assert_eq!(previous.node_runs[&s].status, RunStatus::Skipped);

        // Resume on a healthy executor: y replays from the checkpoint,
        // x and s re-execute.
        let healthy = Executor::new(test_registry()).with_cache(64);
        let mut obs = RecordingObserver::default();
        let resumed = healthy.resume(&wf, &previous, &mut obs).unwrap();
        assert!(resumed.succeeded());
        assert_eq!(resumed.output(s, "out"), Some(&Value::Int(42)));
        assert_eq!(resumed.resumed_from, Some(previous.exec));
        assert_eq!(resumed.cache_hits(), 1, "only y is replayed");
        assert!(resumed.node_runs[&y].from_cache);
        assert!(!resumed.node_runs[&x].from_cache);
        assert!(obs.events.iter().any(|e| matches!(
            e,
            EngineEvent::RunResumed { resumed_from, reused: 1, .. }
                if *resumed_from == previous.exec
        )));

        // The parallel driver resumes identically.
        let healthy = Executor::new(test_registry()).with_cache(64);
        let resumed_par = healthy
            .resume_parallel(&wf, &previous, 4, &mut NullObserver)
            .unwrap();
        assert!(resumed_par.succeeded());
        assert_eq!(resumed_par.cache_hits(), 1);
        assert_eq!(resumed_par.fingerprint(), resumed.fingerprint());
    }

    #[test]
    fn resume_without_cache_is_rejected() {
        let (wf, ..) = add_workflow();
        let exec = Executor::new(test_registry());
        let previous = exec.run(&wf).unwrap();
        assert!(exec.resume(&wf, &previous, &mut NullObserver).is_err());
    }

    #[test]
    fn fingerprints_are_deterministic_across_drivers_and_seeds() {
        let (wf, x, ..) = add_workflow();
        let run_with = |parallel: bool| {
            let exec = Executor::new(test_registry())
                .with_policy(
                    ExecPolicy::new()
                        .with_retry(RetryPolicy::attempts(3).backoff(10, 2.0, 100).jitter(0.5))
                        .with_seed(99),
                )
                .with_faults(FaultPlan::new().fail_on(x, 1, "flaky"));
            if parallel {
                exec.run_parallel(&wf, 4, &mut NullObserver).unwrap()
            } else {
                exec.run(&wf).unwrap()
            }
        };
        let a = run_with(false);
        let b = run_with(false);
        let c = run_with(true);
        assert_eq!(a.fingerprint(), b.fingerprint(), "sequential replay");
        assert_eq!(
            a.fingerprint(),
            c.fingerprint(),
            "parallel matches sequential"
        );
    }
}
