//! Wire payloads of the CB-pub/sub layer, routed by the overlay.

use std::sync::Arc;

use cbps_overlay::{Key, Peer};
use cbps_sim::{SimTime, TraceId};

use crate::event::{Event, EventId};
use crate::store::StoredSub;
use crate::subscription::SubId;

/// One notification: an event that matched a subscription, both by id
/// (the event's content stays with its publication).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotifyItem {
    /// The matched subscription.
    pub sub_id: SubId,
    /// The matching event's id.
    pub event_id: EventId,
}

impl NotifyItem {
    /// Causal trace of the `pub(e)` operation that produced the match.
    pub fn trace(&self) -> TraceId {
        self.event_id.trace()
    }
}

/// Notification payload: a singleton item travels inline, a buffered
/// batch spills to a `Vec`.
///
/// The immediate notify mode sends exactly one match per message, and
/// that path is the steady-state hot loop of the allocation audit — an
/// always-`Vec` payload would cost one heap allocation per delivered
/// notification. The buffered and collecting modes batch per subscriber
/// and ship the accumulated `Vec` as-is.
#[derive(Clone, Debug, PartialEq)]
pub enum NotifyBatch {
    /// A single match, stored inline (no heap allocation).
    One(NotifyItem),
    /// A buffered batch: one flush interval's matches for one subscriber.
    Many(Vec<NotifyItem>),
}

impl NotifyBatch {
    /// Number of matches carried.
    pub fn len(&self) -> usize {
        match self {
            NotifyBatch::One(_) => 1,
            NotifyBatch::Many(v) => v.len(),
        }
    }

    /// `true` when no match is carried (only possible for an empty batch).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matches as a slice.
    pub fn as_slice(&self) -> &[NotifyItem] {
        match self {
            NotifyBatch::One(item) => std::slice::from_ref(item),
            NotifyBatch::Many(v) => v,
        }
    }
}

impl IntoIterator for NotifyBatch {
    type Item = NotifyItem;
    type IntoIter = NotifyBatchIter;

    fn into_iter(self) -> NotifyBatchIter {
        match self {
            NotifyBatch::One(item) => NotifyBatchIter::One(std::iter::once(item)),
            NotifyBatch::Many(v) => NotifyBatchIter::Many(v.into_iter()),
        }
    }
}

/// Consuming iterator over a [`NotifyBatch`].
#[derive(Debug)]
pub enum NotifyBatchIter {
    /// Iterating a singleton.
    One(std::iter::Once<NotifyItem>),
    /// Iterating a spilled batch.
    Many(std::vec::IntoIter<NotifyItem>),
}

impl Iterator for NotifyBatchIter {
    type Item = NotifyItem;

    fn next(&mut self) -> Option<NotifyItem> {
        match self {
            NotifyBatchIter::One(it) => it.next(),
            NotifyBatchIter::Many(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            NotifyBatchIter::One(it) => it.size_hint(),
            NotifyBatchIter::Many(it) => it.size_hint(),
        }
    }
}

/// One match travelling along the ring toward its subscription's agent node
/// (the collecting optimization, §4.3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectItem {
    /// The matched subscription.
    pub sub_id: SubId,
    /// Who ultimately receives the notification.
    pub subscriber: Peer,
    /// Middle key of the subscription's rendezvous range: the node covering
    /// it acts as the aggregation agent.
    pub agent_key: Key,
    /// The matching event's id.
    pub event_id: EventId,
}

impl CollectItem {
    /// Causal trace of the `pub(e)` operation that produced the match.
    pub fn trace(&self) -> TraceId {
        self.event_id.trace()
    }
}

/// Application payloads carried by the overlay for the pub/sub layer.
#[derive(Clone, Debug, PartialEq)]
pub enum PubSubMsg {
    /// `sub(σ)`: store this subscription at the rendezvous keys.
    Subscribe {
        /// Subscription id.
        id: SubId,
        /// The stored record (query, subscriber, expiry, full `SK` set),
        /// built once by the subscriber: m-cast splits and the rendezvous
        /// stores all share it.
        stored: Arc<StoredSub>,
    },
    /// `unsub(σ)`: drop the subscription at the rendezvous keys.
    Unsubscribe {
        /// Subscription id to drop.
        id: SubId,
    },
    /// `pub(e)`: match this event at the rendezvous keys.
    Publish {
        /// Event id; its trace is [`EventId::trace`].
        id: EventId,
        /// The event, shared across m-cast splits (cloning a split
        /// envelope bumps a refcount instead of deep-copying the attribute
        /// vector).
        event: Arc<Event>,
    },
    /// Matches delivered to a subscriber (routed to the subscriber's key).
    Notification {
        /// The batched matches (inline singleton without buffering).
        items: NotifyBatch,
    },
    /// Ring-neighbor exchange of matches flowing toward range agents
    /// (one-hop direct messages, class `COLLECT`).
    CollectExchange {
        /// Matches to move along the ring.
        items: Vec<CollectItem>,
    },
    /// State transfer between neighbors (join/leave) or to replicas
    /// (one-hop direct messages, class `STATE_TRANSFER`).
    StateBatch {
        /// The records being transferred.
        subs: Vec<(SubId, Arc<StoredSub>)>,
        /// `true`: store passively as replicas; `false`: adopt as primary.
        as_replica: bool,
    },
    /// Replica invalidation after unsubscription or expiry-driven cleanup.
    ReplicaDrop {
        /// Subscription ids to drop from the replica set.
        ids: Vec<SubId>,
    },
}

/// Application timers of the pub/sub layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PubSubTimer {
    /// Flush notification/collect buffers (buffering period elapsed).
    Flush,
    /// Re-issue a leased subscription before it lapses (lease refresh).
    Refresh {
        /// The subscription to refresh.
        id: SubId,
    },
}

/// A notification as observed by the subscribing application: which
/// subscription fired, for which event, and when it arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveredNote {
    /// The subscription that matched.
    pub sub_id: SubId,
    /// The event's id.
    pub event_id: EventId,
    /// Arrival (simulated) time at the subscriber.
    pub at: SimTime,
}

impl DeliveredNote {
    /// Causal trace of the publication that produced this notification,
    /// usable with [`cbps_sim::TraceLog::chain`] to explain the delivery
    /// hop-by-hop when observability was enabled during the run.
    pub fn trace(&self) -> TraceId {
        self.event_id.trace()
    }
}
