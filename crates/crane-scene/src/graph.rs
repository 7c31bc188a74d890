//! A small scene graph with hierarchical transforms.

use sim_math::Transform;

use crate::bounds::Aabb;
use crate::mesh::Mesh;

/// Index of a node within a [`SceneGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

#[derive(Debug, Clone)]
struct Node {
    name: String,
    local: Transform,
    mesh: Option<usize>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A scene graph: named nodes with local transforms, optionally referencing meshes.
#[derive(Debug, Clone, Default)]
pub struct SceneGraph {
    nodes: Vec<Node>,
    meshes: Vec<Mesh>,
}

/// One renderable instance produced by flattening the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshInstance<'a> {
    /// The node that produced the instance.
    pub node: NodeId,
    /// Node name.
    pub name: &'a str,
    /// World transform of the node.
    pub world: Transform,
    /// The referenced mesh.
    pub mesh: &'a Mesh,
}

impl SceneGraph {
    /// Creates an empty scene graph.
    pub fn new() -> SceneGraph {
        SceneGraph::default()
    }

    /// Registers a mesh and returns its index.
    pub fn add_mesh(&mut self, mesh: Mesh) -> usize {
        self.meshes.push(mesh);
        self.meshes.len() - 1
    }

    /// The registered meshes.
    pub fn meshes(&self) -> &[Mesh] {
        &self.meshes
    }

    /// Adds a node. `parent = None` creates a root node.
    ///
    /// # Panics
    ///
    /// Panics if `parent` or `mesh` refer to entries that do not exist.
    pub fn add_node(
        &mut self,
        name: &str,
        parent: Option<NodeId>,
        local: Transform,
        mesh: Option<usize>,
    ) -> NodeId {
        if let Some(p) = parent {
            assert!(p.0 < self.nodes.len(), "unknown parent node");
        }
        if let Some(m) = mesh {
            assert!(m < self.meshes.len(), "unknown mesh index");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { name: name.to_owned(), local, mesh, parent, children: Vec::new() });
        if let Some(p) = parent {
            self.nodes[p.0].children.push(id);
        }
        id
    }

    /// Name of a node.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Finds the first node with the given name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Replaces the local transform of a node (used to animate the crane, the
    /// cargo and the hook every frame).
    pub fn set_local_transform(&mut self, node: NodeId, local: Transform) {
        self.nodes[node.0].local = local;
    }

    /// The world transform of a node (composition of its ancestors).
    pub fn world_transform(&self, node: NodeId) -> Transform {
        let mut chain = Vec::new();
        let mut cursor = Some(node);
        while let Some(id) = cursor {
            chain.push(self.nodes[id.0].local);
            cursor = self.nodes[id.0].parent;
        }
        let mut world = Transform::identity();
        for local in chain.into_iter().rev() {
            world = world.then(&local);
        }
        world
    }

    /// Flattens the graph into world-space mesh instances.
    pub fn instances(&self) -> Vec<MeshInstance<'_>> {
        (0..self.nodes.len())
            .filter_map(|i| {
                let node = &self.nodes[i];
                node.mesh.map(|mesh_index| MeshInstance {
                    node: NodeId(i),
                    name: node.name.as_str(),
                    world: self.world_transform(NodeId(i)),
                    mesh: &self.meshes[mesh_index],
                })
            })
            .collect()
    }

    /// Total number of polygons referenced by the graph's instances. The sum
    /// needs no world transform, so it does not go through [`Self::instances`].
    pub fn polygon_count(&self) -> usize {
        self.nodes.iter().filter_map(|n| n.mesh).map(|m| self.meshes[m].polygon_count()).sum()
    }

    /// World-space bounding box of one instance-bearing node.
    pub fn instance_aabb(&self, node: NodeId) -> Option<Aabb> {
        let mesh_index = self.nodes[node.0].mesh?;
        let world = self.world_transform(node);
        Some(Aabb::from_points(self.meshes[mesh_index].vertices.iter().map(|v| world.apply(*v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Color;
    use crate::primitives::cuboid;
    use sim_math::{Quat, Vec3};

    fn simple_graph() -> (SceneGraph, NodeId, NodeId) {
        let mut g = SceneGraph::new();
        let body = g.add_mesh(cuboid(Vec3::ZERO, Vec3::splat(1.0), Color::CRANE_YELLOW));
        let root = g.add_node(
            "chassis",
            None,
            Transform::from_translation(Vec3::new(10.0, 0.0, 0.0)),
            Some(body),
        );
        let child = g.add_node(
            "boom",
            Some(root),
            Transform::from_translation(Vec3::new(0.0, 2.0, 0.0)),
            Some(body),
        );
        (g, root, child)
    }

    #[test]
    fn world_transform_composes_ancestors() {
        let (g, _root, child) = simple_graph();
        let world = g.world_transform(child);
        assert!(world.translation.distance(Vec3::new(10.0, 2.0, 0.0)) < 1e-12);
    }

    #[test]
    fn instances_and_polygon_count() {
        let (g, _, _) = simple_graph();
        let instances = g.instances();
        assert_eq!(instances.len(), 2);
        assert_eq!(g.polygon_count(), 24);
        assert_eq!(g.nodes.len(), 2);
    }

    #[test]
    fn polygon_count_equals_the_sum_over_instances() {
        let via_instances =
            |g: &SceneGraph| g.instances().iter().map(|i| i.mesh.polygon_count()).sum::<usize>();

        let world = crate::TrainingWorld::build();
        assert!(world.scene.polygon_count() > 0);
        assert_eq!(world.scene.polygon_count(), via_instances(&world.scene));

        // A mesh-less interior node contributes nothing; its mesh-bearing
        // child and a mesh shared by two nodes are each counted per node.
        let (mut g, root, _) = simple_graph();
        let pivot = g.add_node("pivot", Some(root), Transform::identity(), None);
        g.add_node("hook", Some(pivot), Transform::identity(), Some(0));
        assert_eq!(g.instances().len(), 3);
        assert_eq!(g.polygon_count(), 36);
        assert_eq!(g.polygon_count(), via_instances(&g));
        assert_eq!(SceneGraph::new().polygon_count(), 0);
    }

    #[test]
    fn find_and_animate() {
        let (mut g, root, child) = simple_graph();
        assert_eq!(g.find("boom"), Some(child));
        assert_eq!(g.find("missing"), None);
        g.set_local_transform(
            root,
            Transform::new(
                Vec3::new(20.0, 0.0, 0.0),
                Quat::from_axis_angle(Vec3::unit_y(), std::f64::consts::FRAC_PI_2),
            ),
        );
        let world = g.world_transform(child);
        assert!(world.translation.distance(Vec3::new(20.0, 2.0, 0.0)) < 1e-9);
    }

    #[test]
    #[should_panic]
    fn unknown_parent_rejected() {
        let mut g = SceneGraph::new();
        g.add_node("orphan", Some(NodeId(7)), Transform::identity(), None);
    }
}
