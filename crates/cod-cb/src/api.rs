//! The service interface seen by a Logical Process.
//!
//! Simulator modules (dashboard, dynamics, visual display, ...) are written
//! against the object-safe [`CbApi`] trait, so the same module code runs no
//! matter which transport the resident CB uses or which computer it has been
//! placed on. [`LpContext`] is the concrete implementation that borrows the
//! kernel for the duration of one module step.

use crate::error::CbError;
use crate::fom::{AttributeValues, ClassRegistry, InteractionClassId, ObjectClassId};
use crate::kernel::{CbKernel, InteractionMessage, LpId, ObjectId, Reflection};
use cod_net::{Micros, Transport};

/// The HLA-flavoured services a Logical Process may call on its resident CB.
pub trait CbApi {
    /// Current simulation time of the resident CB.
    fn now(&self) -> Micros;

    /// The id of the calling LP.
    fn lp_id(&self) -> LpId;

    /// The shared federation object model.
    fn fom(&self) -> &ClassRegistry;

    /// Declares that this LP publishes `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the class is not declared in the FOM.
    fn publish_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError>;

    /// Declares that this LP subscribes to `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the class is not declared in the FOM.
    fn subscribe_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError>;

    /// Declares that this LP wants to receive interactions of `class`.
    ///
    /// # Errors
    ///
    /// Returns an error if the interaction class is not declared in the FOM.
    fn subscribe_interaction_class(&mut self, class: InteractionClassId) -> Result<(), CbError>;

    /// Registers a new object instance of a published class.
    ///
    /// # Errors
    ///
    /// Returns an error if this LP has not published `class`.
    fn register_object(&mut self, class: ObjectClassId) -> Result<ObjectId, CbError>;

    /// Pushes new attribute values for an object owned by this LP
    /// (*Update Attribute Values*), timestamped with the current CB time.
    ///
    /// # Errors
    ///
    /// Returns an error if the object is unknown or not owned by this LP.
    fn update_attributes(
        &mut self,
        object: ObjectId,
        values: AttributeValues,
    ) -> Result<(), CbError>;

    /// Sends an interaction of `class` with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the interaction class is not declared in the FOM.
    fn send_interaction(
        &mut self,
        class: InteractionClassId,
        parameters: AttributeValues,
    ) -> Result<(), CbError>;

    /// Pulls the reflections (*Reflect Attribute Values*) queued for this LP.
    fn reflections(&mut self) -> Vec<Reflection>;

    /// Pulls the interactions queued for this LP.
    fn interactions(&mut self) -> Vec<InteractionMessage>;
}

/// A borrow of the resident CB kernel scoped to one LP.
#[derive(Debug)]
pub struct LpContext<'a, T: Transport> {
    kernel: &'a mut CbKernel<T>,
    lp: LpId,
}

impl<'a, T: Transport> LpContext<'a, T> {
    /// Creates a context for `lp` backed by `kernel`.
    pub fn new(kernel: &'a mut CbKernel<T>, lp: LpId) -> LpContext<'a, T> {
        LpContext { kernel, lp }
    }
}

impl<'a, T: Transport> CbApi for LpContext<'a, T> {
    fn now(&self) -> Micros {
        self.kernel.now()
    }

    fn lp_id(&self) -> LpId {
        self.lp
    }

    fn fom(&self) -> &ClassRegistry {
        self.kernel.fom()
    }

    fn publish_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError> {
        self.kernel.publish_object_class(self.lp, class)
    }

    fn subscribe_object_class(&mut self, class: ObjectClassId) -> Result<(), CbError> {
        self.kernel.subscribe_object_class(self.lp, class)
    }

    fn subscribe_interaction_class(&mut self, class: InteractionClassId) -> Result<(), CbError> {
        self.kernel.subscribe_interaction_class(self.lp, class)
    }

    fn register_object(&mut self, class: ObjectClassId) -> Result<ObjectId, CbError> {
        self.kernel.register_object_instance(self.lp, class)
    }

    fn update_attributes(
        &mut self,
        object: ObjectId,
        values: AttributeValues,
    ) -> Result<(), CbError> {
        let now = self.kernel.now();
        self.kernel.update_attribute_values(self.lp, object, values, now)
    }

    fn send_interaction(
        &mut self,
        class: InteractionClassId,
        parameters: AttributeValues,
    ) -> Result<(), CbError> {
        let now = self.kernel.now();
        self.kernel.send_interaction(self.lp, class, parameters, now)
    }

    fn reflections(&mut self) -> Vec<Reflection> {
        self.kernel.reflections(self.lp)
    }

    fn interactions(&mut self) -> Vec<InteractionMessage> {
        self.kernel.interactions(self.lp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fom::Value;
    use cod_net::{LanConfig, SimLan};

    #[test]
    fn context_delegates_to_kernel() {
        let mut fom = ClassRegistry::new();
        let crane = fom.register_object_class("CraneState", &["boom_angle"]).unwrap();
        let alarm = fom.register_interaction_class("Alarm", &["code"]).unwrap();
        let lan = SimLan::shared(LanConfig::ideal(1));
        let mut kernel = CbKernel::new(SimLan::attach(&lan, "pc"), fom.clone());
        let producer = kernel.register_lp();
        let consumer = kernel.register_lp();

        {
            let mut ctx = LpContext::new(&mut kernel, consumer);
            ctx.subscribe_object_class(crane).unwrap();
            ctx.subscribe_interaction_class(alarm).unwrap();
            assert_eq!(ctx.lp_id(), consumer);
            assert_eq!(ctx.fom().object_class_count(), 1);
        }

        let object;
        {
            let mut ctx = LpContext::new(&mut kernel, producer);
            ctx.publish_object_class(crane).unwrap();
            object = ctx.register_object(crane).unwrap();
            let angle = ctx.fom().attribute_id(crane, "boom_angle").unwrap();
            ctx.update_attributes(object, [(angle, Value::F64(0.4))].into()).unwrap();
            let code = ctx.fom().parameter_id(alarm, "code").unwrap();
            ctx.send_interaction(alarm, [(code, Value::U32(2))].into()).unwrap();
        }

        let mut ctx = LpContext::new(&mut kernel, consumer);
        let reflections = ctx.reflections();
        assert_eq!(reflections.len(), 1);
        assert_eq!(reflections[0].object, object);
        assert_eq!(ctx.interactions().len(), 1);
    }

    #[test]
    fn api_is_object_safe() {
        fn _takes_dyn(_api: &mut dyn CbApi) {}
    }
}
