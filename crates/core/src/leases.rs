//! The lease table: one problem's record of which unit is out, with
//! whom, until when, and which unit goes out next (paper §2.1).
//!
//! A unit it holds is in exactly one place: *in flight* (a live lease)
//! or the *reissue queue* (every lease gone, no result yet). Units go
//! out in the order they were made: the reissue queue first, front
//! first, then fresh units pulled from the data manager on demand. The
//! [`Server`](crate::server::Server) decides policy and what to report;
//! only this module touches the bookkeeping, so its scans can become
//! indexes (ROADMAP item 2) behind the same methods. What it returns is
//! sorted: `HashMap` order never reaches dispatch or trace bytes.

use crate::problem::{UnitId, WorkUnit};
use crate::sched::ClientId;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hashes a unit id with one multiply. The table's keys are ids the
/// server's own data managers chose, so there is nobody to defend
/// against; maps keyed by what arrives off the wire (client ids) keep
/// the standard library's keyed hasher.
#[derive(Default)]
struct UnitIdHasher(u64);

impl Hasher for UnitIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("unit ids hash as one u64");
    }
    fn write_u64(&mut self, id: u64) {
        // (Fibonacci hashing; the rotate brings the well-mixed high bits
        // down to where the table takes its bucket index from.)
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }
}

type UnitMap<V> = HashMap<UnitId, V, BuildHasherDefault<UnitIdHasher>>;

/// One donor's claim on a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// The holder.
    pub client: ClientId,
    /// When the lease was granted.
    pub assigned_at: f64,
    /// The holder's deliveries by then (units, ops), for the queue factor.
    pub completed_before: (u64, f64),
    /// When the lease expires.
    pub deadline: f64,
}

/// A unit's live leases, in grant order, the first stored inline: the
/// common unit — one copy out — allocates nothing for them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Leases {
    // (`None` only when there are no leases at all.)
    first: Option<Lease>,
    rest: Vec<Lease>,
}

impl Leases {
    /// The leases, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Lease> + Clone {
        self.first.iter().chain(&self.rest)
    }

    /// How many there are.
    pub fn len(&self) -> usize {
        self.first.iter().len() + self.rest.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    fn push(&mut self, lease: Lease) {
        match self.first {
            None => self.first = Some(lease),
            Some(_) => self.rest.push(lease),
        }
    }

    fn retain(&mut self, keep: impl Fn(&Lease) -> bool) {
        self.rest.retain(&keep);
        if self.first.as_ref().is_some_and(|l| !keep(l)) {
            self.first = (!self.rest.is_empty()).then(|| self.rest.remove(0));
        }
    }
}

impl PartialEq<Vec<Lease>> for Leases {
    fn eq(&self, other: &Vec<Lease>) -> bool {
        self.iter().eq(other)
    }
}

/// A unit and its live leases (none once taken off the reissue queue).
#[derive(Debug)]
pub struct InFlight {
    /// The unit (shared so it can be redundantly dispatched).
    pub unit: Arc<WorkUnit>,
    /// Who is computing it.
    pub leases: Leases,
}

impl InFlight {
    /// `client`'s lease on the unit, if it holds one.
    pub fn lease_of(&self, client: ClientId) -> Option<&Lease> {
        self.leases.iter().find(|l| l.client == client)
    }
}

/// What a release moved, both lists sorted.
#[derive(Debug, Default, PartialEq)]
pub struct Released {
    /// `(unit, holder)` of every lease dropped.
    pub leases: Vec<(UnitId, ClientId)>,
    /// Units that lost their last lease, queued for reissue in this order.
    pub orphans: Vec<UnitId>,
}

/// An in-flight unit chosen for one more copy.
#[derive(Debug)]
pub struct ExtraCopy {
    /// The unit.
    pub unit: Arc<WorkUnit>,
    /// Lowest wins: `(oldest lease, unit id)`.
    pub rank: (f64, UnitId),
}

/// One problem's lease bookkeeping.
#[derive(Debug, Default)]
pub struct LeaseTable {
    in_flight: UnitMap<InFlight>,
    reissue: VecDeque<Arc<WorkUnit>>,
    // A lower bound on every live deadline (`None`: nothing is out): no
    // expiry scan before it. Releases leave it early; a scan resets it.
    next_deadline: Option<f64>,
    // Times each unit was orphaned by expiry: drives lease backoff, so a
    // donor slower than its estimate cannot livelock a unit (reissue
    // before its own result arrives, forever).
    expiries: UnitMap<u32>,
    // Lowest and highest unit id ever leased, for `audit`.
    leased: Option<(UnitId, UnitId)>,
}

impl LeaseTable {
    /// Queues units recovered from a checkpoint for (re)issue.
    pub fn restore(&mut self, units: impl IntoIterator<Item = WorkUnit>) {
        self.reissue.extend(units.into_iter().map(Arc::new));
    }

    /// Records a lease on `unit`, which goes (or stays) in flight.
    pub fn grant(&mut self, unit: &Arc<WorkUnit>, lease: Lease) {
        let (lo, hi) = self.leased.unwrap_or((unit.id, unit.id));
        self.leased = Some((lo.min(unit.id), hi.max(unit.id)));
        self.next_deadline = Some(self.earliest_deadline().min(lease.deadline));
        let inf = self.in_flight.entry(unit.id).or_insert_with(|| InFlight {
            unit: unit.clone(),
            leases: Leases::default(),
        });
        inf.leases.push(lease);
    }

    /// A result for `unit` arrived: hands the unit over, out of flight or
    /// off the reissue queue. `None`: not pending (already completed).
    pub fn take(&mut self, unit: UnitId) -> Option<InFlight> {
        self.in_flight.remove(&unit).or_else(|| {
            let at = self.reissue.iter().position(|u| u.id == unit)?;
            let (unit, leases) = (self.reissue.remove(at)?, Leases::default());
            Some(InFlight { unit, leases })
        })
    }

    /// Cancels `client`'s lease on `unit`: `None` if the unit is not in
    /// flight, else whether that orphaned it. The one place a unit is
    /// orphaned: with no lease left it is queued for reissue.
    pub fn release(&mut self, unit: UnitId, client: ClientId) -> Option<bool> {
        let mut inf = self.in_flight.remove(&unit)?;
        inf.leases.retain(|l| l.client != client);
        let orphaned = inf.leases.is_empty();
        if orphaned {
            self.reissue.push_back(inf.unit);
        } else {
            self.in_flight.insert(unit, inf);
        }
        Some(orphaned)
    }

    /// Cancels every lease `client` holds.
    pub fn release_client(&mut self, client: ClientId) -> Released {
        self.release_all(|l| l.client == client)
    }

    /// Cancels every lease due at or before `now` and counts an expiry
    /// against each unit that orphans. `None` — no scan — while `now`
    /// is before [`Self::earliest_deadline`].
    pub fn expire(&mut self, now: f64) -> Option<Released> {
        if now < self.earliest_deadline() {
            return None;
        }
        let moved = self.release_all(|l| l.deadline <= now);
        let live = self.in_flight.values().flat_map(|inf| inf.leases.iter());
        self.next_deadline = live.map(|l| l.deadline).reduce(f64::min);
        for &unit in &moved.orphans {
            let n = self.expiries.entry(unit).or_insert(0);
            *n = n.saturating_add(1);
        }
        Some(moved)
    }

    // Releases, in `(unit, client)` order, every lease `gone` selects
    // (the server never grants a client two leases on one unit).
    fn release_all(&mut self, gone: impl Fn(&Lease) -> bool) -> Released {
        let mut moved = Released::default();
        for (&unit, inf) in &self.in_flight {
            let dropped = inf.leases.iter().filter(|l| gone(l));
            moved.leases.extend(dropped.map(|l| (unit, l.client)));
        }
        moved.leases.sort_unstable();
        for &(unit, client) in &moved.leases {
            if self.release(unit, client) == Some(true) {
                moved.orphans.push(unit);
            }
        }
        moved
    }

    /// Times `unit` was orphaned by lease expiry.
    pub fn expiries(&self, unit: UnitId) -> u32 {
        self.expiries.get(&unit).copied().unwrap_or(0)
    }

    /// A lower bound on every live lease's deadline (`+inf` with none).
    pub fn earliest_deadline(&self) -> f64 {
        self.next_deadline.unwrap_or(f64::INFINITY)
    }

    /// Units in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Units queued for reissue.
    pub fn queued_len(&self) -> usize {
        self.reissue.len()
    }

    /// Adds each holder's live lease count to `counts`.
    pub fn count_leases(&self, counts: &mut BTreeMap<ClientId, u32>) {
        for l in self.in_flight.values().flat_map(|inf| inf.leases.iter()) {
            *counts.entry(l.client).or_insert(0) += 1;
        }
    }

    /// Takes the reissue queue's front unit.
    pub fn next_queued(&mut self) -> Option<Arc<WorkUnit>> {
        self.reissue.pop_front()
    }

    /// The in-flight unit that most needs another copy, on `client`:
    /// of those with fewer than `cap` copies out and none on `client`,
    /// the longest-running, then the lowest id.
    pub fn extra_copy(&self, client: ClientId, cap: u32) -> Option<ExtraCopy> {
        let mut best: Option<((f64, UnitId), &InFlight)> = None;
        for (&unit, inf) in &self.in_flight {
            let mine = || inf.leases.iter().any(|l| l.client == client);
            if inf.leases.len() >= cap as usize || mine() {
                continue;
            }
            let ages = inf.leases.iter().map(|l| l.assigned_at);
            let rank = (ages.fold(f64::INFINITY, f64::min), unit);
            if best.is_none_or(|(b, _)| rank < b) {
                best = Some((rank, inf));
            }
        }
        best.map(|(rank, inf)| ExtraCopy {
            unit: inf.unit.clone(),
            rank,
        })
    }

    /// Checks the table's invariants; returns the violations, sorted.
    pub fn audit(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut place: HashMap<UnitId, &str> = HashMap::new();
        let flying = self.in_flight.keys().map(|&u| (u, "in-flight map"));
        let queued = self.reissue.iter().map(|u| (u.id, "reissue queue"));
        for (unit, here) in flying.chain(queued) {
            if let Some(there) = place.insert(unit, here) {
                v.push(format!("unit {unit} is in the {there} and the {here}"));
            }
        }
        let earliest = self.earliest_deadline();
        for (unit, inf) in &self.in_flight {
            if inf.leases.is_empty() {
                v.push(format!("unit {unit} is in flight without a lease"));
            }
            for due in inf.leases.iter().map(|l| l.deadline) {
                if due < earliest {
                    v.push(format!("unit {unit}: lease due {due} < tracked {earliest}"));
                }
            }
        }
        for (unit, n) in &self.expiries {
            if !self.leased.is_some_and(|(lo, hi)| (lo..=hi).contains(unit)) {
                v.push(format!("unit {unit} was never leased but has {n} expiries"));
            }
        }
        v.sort();
        v
    }
}
