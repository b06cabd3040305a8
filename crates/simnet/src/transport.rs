//! One handshake's point-to-point link on the shared bus.
//!
//! A [`SharedBus`](crate::SharedBus) with a single slot is a private CAN-FD link between
//! one initiator and one responder. What such a link adds to the bus
//! model is the per-frame driver overhead of its two boards, taken from
//! the `ecq_devices` cost tables ([`pair_overheads`]): moving a 64-byte
//! frame through an ISR and a copy is charged as one SHA-256 block time
//! on that board — a deliberately small, board-scaled stand-in (the
//! paper's point stands: transfer time is negligible against the EC
//! arithmetic).
//!
//! Each slot hands reassembled messages to its endpoints through
//! `DirectionalQueues`, which keep the link contract every sweep
//! relies on:
//!
//! 1. **Determinism** — delivery times are a pure function of the
//!    submitted messages and their timestamps; no wall clock, no
//!    randomness.
//! 2. **FIFO per direction** — messages from one role arrive in the
//!    order they were sent (a CAN link cannot reorder one sender's
//!    ISO-TP messages).
//! 3. **Positive progress** — a delivery is never due earlier than the
//!    time it was queued for, so an event scheduler driving the bus
//!    always advances.
//!
//! The tests below pin the link-level claims: a full handshake message
//! crosses in ~1 ms, the two directions share the medium, board overhead
//! slows delivery and delivery stays FIFO per direction.

use crate::{ms_to_ns, SimNanos};
use ecq_devices::DeviceProfile;
use ecq_proto::{Message, Role};
use std::collections::VecDeque;

/// Virtual time in microseconds (the fleet scheduler's clock).
pub type TransportTime = u64;

/// Per-frame driver overhead of the two endpoints, ns, indexed
/// `[initiator, responder]` as
/// [`SharedBus::add_slot`](crate::SharedBus::add_slot) takes it.
pub fn pair_overheads(initiator: &DeviceProfile, responder: &DeviceProfile) -> [SimNanos; 2] {
    [
        ms_to_ns(initiator.costs.hash_block_ms),
        ms_to_ns(responder.costs.hash_block_ms),
    ]
}

/// One bus slot's per-direction FIFO delivery queues. `push` clamps
/// each delivery to no earlier than the last one queued toward the same
/// receiver, so the FIFO-per-direction contract holds by construction
/// even when the latency model would otherwise let a small late message
/// overtake a large earlier one.
#[derive(Debug, Default)]
pub(crate) struct DirectionalQueues {
    to_initiator: VecDeque<(TransportTime, Message)>,
    to_responder: VecDeque<(TransportTime, Message)>,
    /// Last queued delivery time per receiver (`[initiator, responder]`).
    floor: [TransportTime; 2],
}

/// `[initiator, responder]` array index of a role.
pub(crate) fn role_index(role: Role) -> usize {
    match role {
        Role::Initiator => 0,
        Role::Responder => 1,
    }
}

impl DirectionalQueues {
    fn queue_mut(&mut self, receiver: Role) -> &mut VecDeque<(TransportTime, Message)> {
        match receiver {
            Role::Initiator => &mut self.to_initiator,
            Role::Responder => &mut self.to_responder,
        }
    }

    /// Queues a delivery toward `receiver`; returns the effective
    /// delivery time (clamped so one direction never reorders).
    pub(crate) fn push(
        &mut self,
        receiver: Role,
        at: TransportTime,
        message: Message,
    ) -> TransportTime {
        let idx = role_index(receiver);
        let at = at.max(self.floor[idx]);
        self.floor[idx] = at;
        self.queue_mut(receiver).push_back((at, message));
        at
    }

    /// Pops the earliest message for `receiver` that is due by `now`.
    pub(crate) fn pop_due(&mut self, receiver: Role, now: TransportTime) -> Option<Message> {
        let queue = self.queue_mut(receiver);
        match queue.front() {
            Some((at, _)) if *at <= now => queue.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeliveryDue, FaultPlan, SharedBus};
    use ecq_devices::DevicePreset;
    use ecq_proto::{FieldKind, WireField};

    fn sts_b1() -> Message {
        // The largest STS handshake message (245 B, Table II).
        Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, vec![7; 16]),
                WireField::new(FieldKind::Cert, vec![8; 101]),
                WireField::new(FieldKind::EphemeralPoint, vec![9; 64]),
                WireField::new(FieldKind::Response, vec![10; 64]),
            ],
        )
    }

    fn ack() -> Message {
        Message::new("B2", vec![WireField::new(FieldKind::Ack, vec![1])])
    }

    /// A one-slot bus (a private link) after `sends` of
    /// `(sender, message, µs)` under the given per-role driver
    /// overheads, drained; returns it with its deliveries.
    fn private_link(
        overhead_ns: [SimNanos; 2],
        sends: Vec<(Role, Message, TransportTime)>,
    ) -> (SharedBus, Vec<DeliveryDue>) {
        let mut bus = SharedBus::new(FaultPlan::inert());
        let slot = bus.add_slot(1, overhead_ns);
        for (from, msg, at) in sends {
            bus.send(slot, from, msg, at);
        }
        let mut due = Vec::new();
        while let Some(at) = bus.next_activity_us() {
            due.extend(bus.process(at + 1));
        }
        (bus, due)
    }

    fn due_to(due: &[DeliveryDue], role: Role) -> TransportTime {
        due.iter().find(|d| d.to == role).map(|d| d.at_us).unwrap()
    }

    #[test]
    fn largest_message_crosses_in_about_a_millisecond() {
        // The paper: CAN-FD transfer was "negligible (<1 ms)"; with the
        // FC round the 245 B B1 lands under 2 ms, the 1 B ACK under 0.5.
        let (_, due) = private_link([0, 0], vec![(Role::Responder, sts_b1(), 0)]);
        assert!(due[0].at_us < 2_000, "B1 took {} µs", due[0].at_us);
        let (_, due) = private_link([0, 0], vec![(Role::Responder, ack(), 0)]);
        assert!(due[0].at_us < 500, "ACK took {} µs", due[0].at_us);
    }

    #[test]
    fn bus_occupancy_serializes_directions() {
        // A responder message sent while the initiator's is on the wire
        // waits for the medium.
        let (_, alone) = private_link([0, 0], vec![(Role::Responder, sts_b1(), 0)]);
        let (_, both) = private_link(
            [0, 0],
            vec![
                (Role::Initiator, sts_b1(), 0),
                (Role::Responder, sts_b1(), 0),
            ],
        );
        assert!(due_to(&both, Role::Initiator) > due_to(&alone, Role::Initiator));
        assert!(due_to(&both, Role::Initiator) > due_to(&both, Role::Responder));
    }

    #[test]
    fn device_overhead_slows_the_link() {
        let fast = DevicePreset::RaspberryPi4.profile();
        let slow = DevicePreset::ATmega2560.profile();
        let (_, plain) = private_link([0, 0], vec![(Role::Initiator, sts_b1(), 0)]);
        let (_, loaded) = private_link(
            pair_overheads(&fast, &slow),
            vec![(Role::Initiator, sts_b1(), 0)],
        );
        assert!(loaded[0].at_us > plain[0].at_us);
    }

    #[test]
    fn small_message_cannot_overtake_a_large_one() {
        // The FC round and receiver overhead of a multi-frame message
        // are charged off-bus, so an ACK transmitted right behind B1
        // would otherwise be due first; delivery stays FIFO per
        // direction.
        let slow = DevicePreset::ATmega2560.profile();
        let overheads = pair_overheads(&slow, &slow);
        let after_b1_ready = 4 * overheads[0] / 1_000;
        let (mut bus, due) = private_link(
            overheads,
            vec![
                (Role::Initiator, sts_b1(), 0),
                (Role::Initiator, ack(), after_b1_ready),
            ],
        );
        assert_eq!(due.len(), 2);
        assert!(due[1].at_us >= due[0].at_us, "FIFO per direction: {due:?}");
        let at = due[1].at_us;
        assert_eq!(bus.recv(0, Role::Responder, at).unwrap().step, "B1");
        assert_eq!(bus.recv(0, Role::Responder, at).unwrap().step, "B2");
    }

    fn msg(step: &'static str, byte: u8) -> Message {
        Message::new(step, vec![WireField::new(FieldKind::Ack, vec![byte])])
    }

    #[test]
    fn latency_defers_delivery() {
        // A message queued for 350 µs is not due at 349 and is due at 350.
        let mut q = DirectionalQueues::default();
        assert_eq!(q.push(Role::Responder, 350, msg("A1", 1)), 350);
        assert!(q.pop_due(Role::Responder, 349).is_none());
        assert_eq!(q.pop_due(Role::Responder, 350).unwrap().step, "A1");
        assert!(q.pop_due(Role::Responder, 400).is_none());
    }

    #[test]
    fn directions_are_independent() {
        let mut q = DirectionalQueues::default();
        q.push(Role::Responder, 0, msg("A1", 1));
        q.push(Role::Initiator, 0, msg("B1", 2));
        assert_eq!(q.pop_due(Role::Initiator, 0).unwrap().step, "B1");
        assert_eq!(q.pop_due(Role::Responder, 0).unwrap().step, "A1");
    }

    #[test]
    fn fifo_within_a_direction() {
        let mut q = DirectionalQueues::default();
        q.push(Role::Responder, 10, msg("A1", 1));
        q.push(Role::Responder, 15, msg("A2", 2));
        assert_eq!(q.pop_due(Role::Responder, 100).unwrap().step, "A1");
        assert_eq!(q.pop_due(Role::Responder, 100).unwrap().step, "A2");
        assert!(q.pop_due(Role::Responder, 100).is_none());
    }

    #[test]
    fn queues_clamp_out_of_order_deliveries() {
        // A latency model that would let a later, smaller message
        // overtake an earlier large one gets clamped to FIFO order.
        let mut q = DirectionalQueues::default();
        assert_eq!(q.push(Role::Responder, 500, msg("B1", 1)), 500);
        assert_eq!(q.push(Role::Responder, 200, msg("B2", 2)), 500);
        // The other direction is unaffected.
        assert_eq!(q.push(Role::Initiator, 200, msg("A1", 3)), 200);
        assert!(q.pop_due(Role::Responder, 499).is_none());
        assert_eq!(q.pop_due(Role::Responder, 500).unwrap().step, "B1");
        assert_eq!(q.pop_due(Role::Responder, 500).unwrap().step, "B2");
    }
}
