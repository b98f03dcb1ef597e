//! The power plan: which nodes form the backbone.

use wsn_net::{NodeId, NodeRole};

/// The output of a power-management protocol, as consumed by the protocol
/// simulation: which nodes form the always-awake backbone. The remaining
/// nodes duty-cycle on the scenario's sleep schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerPlan {
    roles: Vec<NodeRole>,
}

impl PowerPlan {
    /// Creates a plan from per-node roles.
    pub fn new(roles: Vec<NodeRole>) -> Self {
        PowerPlan { roles }
    }

    /// The role of `node`.
    pub fn role(&self, node: NodeId) -> NodeRole {
        self.roles[node.index()]
    }

    /// Returns `true` when `node` is in the always-awake backbone.
    pub fn is_backbone(&self, node: NodeId) -> bool {
        self.roles[node.index()].is_backbone()
    }

    /// All per-node roles, in node-id order.
    pub fn roles(&self) -> &[NodeRole] {
        &self.roles
    }

    /// Overwrites the role of `node` — the hook the incremental backbone
    /// repair uses to apply promotion/demotion flips in place instead of
    /// rebuilding the whole plan after every churn batch.
    pub fn set_role(&mut self, node: NodeId, role: NodeRole) {
        self.roles[node.index()] = role;
    }

    /// Mutable access to every per-node role, for
    /// [`crate::repair::RepairableBackbone::repair`] to apply its flips in
    /// place. Non-repair callers should use [`PowerPlan::set_role`].
    pub fn roles_mut(&mut self) -> &mut [NodeRole] {
        &mut self.roles
    }

    /// Iterator over backbone node ids.
    pub fn backbone_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_backbone().then_some(NodeId(i)))
    }

    /// Iterator over duty-cycled (sleeping) node ids.
    pub fn sleeping_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (!r.is_backbone()).then_some(NodeId(i)))
    }

    /// Number of backbone nodes.
    pub fn backbone_count(&self) -> usize {
        self.roles.iter().filter(|r| r.is_backbone()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PowerPlan {
        let roles = vec![
            NodeRole::Backbone,
            NodeRole::DutyCycled,
            NodeRole::DutyCycled,
            NodeRole::Backbone,
        ];
        PowerPlan::new(roles)
    }

    #[test]
    fn role_queries() {
        let p = plan();
        assert!(p.is_backbone(NodeId(0)));
        assert!(!p.is_backbone(NodeId(1)));
        assert_eq!(p.backbone_count(), 2);
        assert_eq!(
            p.backbone_nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(3)]
        );
        assert_eq!(
            p.sleeping_nodes().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
    }
}
