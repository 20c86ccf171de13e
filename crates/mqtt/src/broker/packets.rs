//! Per-packet handlers of the protocol core: inbound PUBLISH at each QoS,
//! the four acknowledgement packets, SUBSCRIBE with retained replay,
//! UNSUBSCRIBE, PINGREQ and DISCONNECT.

use super::proto::ShardProto;
use super::ConnId;
use crate::packet::*;
use crate::persist::WalRecord;
use crate::session::Session;
use crate::stats::BrokerCounters;
use crate::topic::TopicName;
use bytes::Bytes;
use std::sync::atomic::Ordering;

impl ShardProto {
    pub(super) fn on_packet(&mut self, conn_id: ConnId, packet: Packet) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return; // already closed
        };
        conn.last_activity = self.now;
        match packet {
            Packet::Publish(p) => self.on_publish(conn_id, p),
            Packet::Puback(id) => self.on_puback(conn_id, id),
            Packet::Pubrec(id) => self.on_pubrec(conn_id, id),
            Packet::Pubrel(id) => self.on_pubrel(conn_id, id),
            Packet::Pubcomp(id) => self.on_pubcomp(conn_id, id),
            Packet::Subscribe(s) => self.on_subscribe(conn_id, s),
            Packet::Unsubscribe(u) => self.on_unsubscribe(conn_id, u),
            Packet::Pingreq => {
                self.send_to_conn(conn_id, &Packet::Pingresp);
            }
            Packet::Disconnect => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.graceful = true;
                    conn.will = None;
                }
                self.close_conn(conn_id);
            }
            // A second CONNECT on a live connection, or server-to-client
            // packets arriving at the broker, are protocol violations;
            // drop the connection.
            Packet::Connect(_)
            | Packet::Connack(_)
            | Packet::Suback(_)
            | Packet::Unsuback(_)
            | Packet::Pingresp => {
                self.close_conn(conn_id);
            }
        }
    }

    fn on_publish(&mut self, conn_id: ConnId, p: Publish) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        let client_id = conn.client_id.clone();
        let is_bridge = conn.is_bridge;

        BrokerCounters::bump(&self.counters.publishes_in);
        BrokerCounters::add(&self.counters.payload_bytes_in, p.payload.len() as u64);
        if is_bridge {
            BrokerCounters::bump(&self.counters.bridge_in);
        }

        match p.qos {
            QoS::AtMostOnce => self.route(&p, conn_id, is_bridge, Some(&client_id)),
            QoS::AtLeastOnce => {
                let id = p.packet_id.unwrap_or(0);
                self.route(&p, conn_id, is_bridge, Some(&client_id));
                self.send_to_conn(conn_id, &Packet::Puback(id));
            }
            QoS::ExactlyOnce => {
                let id = p.packet_id.unwrap_or(0);
                let fresh = self
                    .sessions
                    .get_mut(&client_id)
                    .map(|s| s.inbound_qos2.insert(id))
                    .unwrap_or(true);
                if fresh {
                    if self.is_persistent(&client_id) {
                        self.log_wal(WalRecord::InboundQos2Insert {
                            client: client_id.clone(),
                            id,
                        });
                    }
                    // Method A: route on first receipt, dedupe duplicates.
                    self.route(&p, conn_id, is_bridge, Some(&client_id));
                }
                self.send_to_conn(conn_id, &Packet::Pubrec(id));
            }
        }
    }
    fn session_of_conn(&mut self, conn_id: ConnId) -> Option<&mut Session> {
        let client = self.conns.get(&conn_id)?.client_id.clone();
        self.sessions.get_mut(&client)
    }

    fn on_puback(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inflight_out.remove(&id).is_some() && !session.clean {
                log = Some(WalRecord::InflightRemove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
    }

    fn on_pubrec(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if let Some(inflight) = session.inflight_out.get_mut(&id) {
                inflight.released = true;
                if !session.clean {
                    log = Some(WalRecord::InflightRelease {
                        client: session.client_id.clone(),
                        id,
                    });
                }
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
        self.send_to_conn(conn_id, &Packet::Pubrel(id));
    }

    fn on_pubrel(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inbound_qos2.remove(&id) && !session.clean {
                log = Some(WalRecord::InboundQos2Remove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
        self.send_to_conn(conn_id, &Packet::Pubcomp(id));
    }

    fn on_pubcomp(&mut self, conn_id: ConnId, id: PacketId) {
        let mut log = None;
        if let Some(session) = self.session_of_conn(conn_id) {
            if session.inflight_out.remove(&id).is_some() && !session.clean {
                log = Some(WalRecord::InflightRemove {
                    client: session.client_id.clone(),
                    id,
                });
            }
        }
        if let Some(rec) = log {
            self.log_wal(rec);
        }
    }

    fn on_subscribe(&mut self, conn_id: ConnId, s: Subscribe) {
        let Some((client_id, key)) = self
            .conns
            .get(&conn_id)
            .map(|c| (c.client_id.clone(), c.key))
        else {
            return;
        };
        let mut codes = Vec::with_capacity(s.filters.len());
        let mut replays: Vec<(TopicName, Bytes, QoS)> = Vec::new();
        for (filter, requested) in &s.filters {
            // The embedded broker grants every valid filter at the
            // requested QoS (codec already validated syntax).
            let granted = *requested;
            let new = self.index.subscribe(filter, key, granted);
            if new {
                BrokerCounters::bump(&self.counters.subscriptions_current);
            }
            let persistent = match self.sessions.get_mut(&client_id) {
                Some(session) => {
                    session.subscriptions.insert(filter.clone(), granted);
                    !session.clean
                }
                None => false,
            };
            if persistent {
                self.log_wal(WalRecord::Subscribe {
                    client: client_id.clone(),
                    filter: filter.clone(),
                    qos: granted,
                });
            }
            codes.push(SubackCode::Granted(granted));
            let snap = self.index.load();
            let mut matching = snap.retained.matching(filter);
            matching.sort_by(|(a, _), (b, _)| a.cmp(b));
            for (topic, retained) in matching {
                replays.push((topic, retained.payload, retained.qos.min(granted)));
            }
        }
        self.send_to_conn(
            conn_id,
            &Packet::Suback(Suback {
                packet_id: s.packet_id,
                return_codes: codes,
            }),
        );
        for (topic, payload, qos) in replays {
            // Retained replays carry retain=1 and pass the fault plan.
            if let Some((payload, duplicate, release)) =
                self.fault_gate(&client_id, &topic, &payload, qos, true, None)
            {
                self.deliver_raw(&client_id, topic.clone(), payload.clone(), qos, true);
                if duplicate {
                    self.deliver_raw(&client_id, topic, payload, qos, true);
                }
                for r in release {
                    self.deliver_raw(&r.client, r.topic, r.payload, r.qos, r.retain);
                }
            }
        }
    }

    fn on_unsubscribe(&mut self, conn_id: ConnId, u: Unsubscribe) {
        let Some((client_id, key)) = self
            .conns
            .get(&conn_id)
            .map(|c| (c.client_id.clone(), c.key))
        else {
            return;
        };
        for filter in &u.filters {
            if self.index.unsubscribe(filter, key) {
                self.counters
                    .subscriptions_current
                    .fetch_sub(1, Ordering::Relaxed);
            }
            let removed_persistent = match self.sessions.get_mut(&client_id) {
                Some(session) => session.subscriptions.remove(filter).is_some() && !session.clean,
                None => false,
            };
            if removed_persistent {
                self.log_wal(WalRecord::Unsubscribe {
                    client: client_id.clone(),
                    filter: filter.clone(),
                });
            }
        }
        self.send_to_conn(conn_id, &Packet::Unsuback(u.packet_id));
    }
}
