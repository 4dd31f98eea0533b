package repro.core

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, isnan, when}
import repro.geom.Heading
import repro.sflow.Query
import repro.track.{SortTracker, TrackedRow}
import repro.video.{Estimators, RunStats, SimDetector}
import repro.world.{FrameRow, GtStateRow, RoadNetwork, RoadSegment}

/** Which optimization operators the plan enables (the §7.2 ablation knobs:
  * SB = none, S6 = all).
  */
final case class PlanConfig(rvp: Boolean, otp: Boolean, geom3d: Boolean, efs: Boolean)

object PlanConfig {
  val baseline: PlanConfig = PlanConfig(rvp = false, otp = false, geom3d = false, efs = false)
  val all: PlanConfig      = PlanConfig(rvp = true, otp = true, geom3d = true, efs = true)
}

/** One Movable-Objects sample as the scene pass emits it: the tracker's
  * row plus the scene-local facts the query engine reads. `heading` is
  * NaN where the track has none; the `objs` projection makes it null.
  */
final case class ObjSample(sceneId: Long, frameIdx: Int, trackId: Long, did: Long, oid: Long,
                           otype: String, estX: Double, estY: Double,
                           heading: Double, turnleft: Boolean, stopped: Boolean, nFrame: Int)

/** Output of the video processor for one plan: the scene pass's
  * samples, the (sceneId, frameIdx) pairs RVP kept and the plan's unit
  * counts, all on the driver. `objs` (the samples as the query engine
  * reads them) and `keptFrames` (for the output composer) are
  * DataFrames built on first read; `tracks` are the samples' tracker
  * columns, defined when the tracker ran.
  */
final case class ProcessResult(samples: Vector[ObjSample], kept: Vector[(Long, Int)],
                               stats: RunStats)(spark: SparkSession) {
  import spark.implicits._
  private def sc = spark.sparkContext

  // Parallelized, so the engine plans over an RDD scan; as a local
  // relation (`Seq.toDF`) Q8's three-way self-join ran slower.
  lazy val objs: DataFrame =
    sc.parallelize(samples, sc.defaultParallelism).toDF().select(
      col("sceneId"), col("frameIdx"), col("trackId").as("oid"), col("otype"),
      col("estX").as("x"), col("estY").as("y"),
      when(!isnan(col("heading")), col("heading")).as("heading"),
      col("turnleft"), col("stopped"), col("nFrame"))

  lazy val keptFrames: DataFrame = sc.parallelize(kept, sc.defaultParallelism).toDF("sceneId", "frameIdx")

  lazy val tracks: Option[Vector[TrackedRow]] = Option.when(stats.trackerRan)(
    samples.map(s => TrackedRow(s.sceneId, s.frameIdx, s.trackId, s.did, s.oid, s.otype, s.estX, s.estY)))
}

/** The Video Processor stage (§5.2.2): the streaming-operator plan
  * Decode → [RVP] → Detect → [OTP] → 3D-Estimate → [EFS] → Track, keeping
  * only the operators the filter predicate requires (e.g. detection-only
  * queries never run the tracker), and counting every operator's units
  * for the cost model.
  *
  * Every scene is independent, so a plan runs as one pass per scene:
  * frames and latent states are cogrouped by scene once, and one task
  * streams each scene's frames in order through the operators. The same
  * task derives, per track in frame order, the facts the query engine
  * reads (headings, turn-left and stopped flags, samples per frame).
  * Plans that an experiment compares share the pass: each scene task
  * runs every plan over the scene. The scene rows come back to the
  * driver in the pass's one Spark job and stay there; a pass caches
  * nothing.
  */
object VideoProcessor {

  /** Headings are computed over a `HeadingLag`-sample baseline so
    * estimation noise does not dominate short inter-frame displacements.
    */
  val HeadingLag        = 6   // ~0.5 s at 12 fps: pedestrians move ~0.8 m
  val MinHeadingDistM   = 0.5
  val TurnLeftMinDeg    = 40.0
  val StoppedMaxDispM   = 3.0
  val StoppedMinSamples = 8

  /** One scene's share of a plan's output: the (sceneId, frameIdx) pairs
    * RVP kept, the output samples and the scene's unit counts. The
    * samples are the tracker's output when it ran; otherwise each
    * detection stands alone, with its `did` as `trackId`.
    */
  private final case class SceneOut(kept: Vector[(Long, Int)], samples: Vector[ObjSample], stats: RunStats)

  /** A plan's operators, resolved once per pass and shipped to the
    * scene tasks.
    */
  private final case class ScenePlan(rvpTargets: Option[Seq[(Array[RoadSegment], Double)]],
                                     types: Option[Set[String]],
                                     efs: Option[(Array[RoadSegment], Array[RoadSegment], Double)],
                                     flags: RunStats)

  /** Run one plan: `runAll` with that plan alone. */
  def run(spark: SparkSession, frames: DataFrame, gtStates: DataFrame, net: RoadNetwork,
          query: Query, config: PlanConfig, fps: Double): ProcessResult =
    runAll(spark, frames, gtStates, net, Seq(query -> config), fps).head

  /** Run every plan over the same scene pass, and split the output by
    * plan, in the order of `plans`.
    */
  def runAll(spark: SparkSession, frames: DataFrame, gtStates: DataFrame, net: RoadNetwork,
             plans: Seq[(Query, PlanConfig)], fps: Double): Seq[ProcessResult] = {
    val scenePlans = plans.map { case (q, c) => scenePlan(net, q, c, fps) }
    val scenes = byScene(frames, gtStates)((_, fs, states) =>
      scenePlans.map(processScene(fs, states, _))).collect().toVector
    scenePlans.indices.map { i =>
      val outs = scenes.map(_(i))
      ProcessResult(outs.flatMap(_.samples), outs.flatMap(_.kept),
                    outs.map(_.stats).foldLeft(scenePlans(i).flags)(_ + _))(spark)
    }
  }

  /** Resolve the operators `config` enables for `query` over `net`. */
  private def scenePlan(net: RoadNetwork, query: Query, config: PlanConfig, fps: Double): ScenePlan = {
    val req   = query.requirements
    val flags = RunStats(0, 0, 0, 0, 0, 0, 0, 0, 0, trackerRan = req.needsTracking,
      rvpApplied = config.rvp && req.rvpTargets.nonEmpty,
      otpApplied = config.otp && req.typesOfInterest.isDefined,
      geomApplied = config.geom3d && req.geomApplicable, efsApplied = config.efs && req.efsApplicable)
    ScenePlan(
      rvpTargets = Option.when(flags.rvpApplied)(
        req.rvpTargets.map { case (t, d) => (net.ofType(t).toArray, d) }),
      types = req.typesOfInterest.filter(_ => flags.otpApplied),
      efs = Option.when(flags.efsApplied)(
        (net.segments.filter(_.heading.isDefined).toArray, net.ofType("intersection").toArray, fps)),
      flags = flags)
  }

  /** Cogroup frames and latent states by scene, and make one row per scene
    * with `f` over the scene's frames in frameIdx order and its states by
    * frameIdx. A scene that repeats a frameIdx (its video was added twice)
    * fails the job.
    */
  def byScene[T: ClassTag](frames: DataFrame, gtStates: DataFrame)(
      f: (Long, Vector[FrameRow], Map[Int, Vector[GtStateRow]]) => T): RDD[T] = {
    val spark = frames.sparkSession
    import spark.implicits._
    frames.as[FrameRow].rdd.keyBy(_.sceneId)
      .cogroup(gtStates.as[GtStateRow].rdd.keyBy(_.sceneId), spark.sparkContext.defaultParallelism)
      .map { case (sid, (fIt, sIt)) =>
        val fs = fIt.toVector.sortBy(_.frameIdx)
        require(fs.map(_.frameIdx).distinct.size == fs.size,
                s"scene $sid repeats a frameIdx; was its video added twice?")
        f(sid, fs, sIt.toVector.groupBy(_.frameIdx))
      }
  }

  /** Run the plan over one scene's frames and latent states. */
  private def processScene(frames: Vector[FrameRow], states: Map[Int, Vector[GtStateRow]],
                           plan: ScenePlan): SceneOut = {
    // Road Visibility Pruner — placed right after the decoder (§6.1).
    val kept = plan.rvpTargets.fold(frames)(t => frames.filter(RoadVisibilityPruner.keep(_, t)))
    // Object detector.
    val dets = kept.flatMap(fr => SimDetector.detectFrame(fr, states.getOrElse(fr.frameIdx, Nil)))
    // Object Type Pruner — right after the detector (§6.2): the Hungarian
    // association cost scales with the number of objects per frame.
    val typed = plan.types.fold(dets)(ts => dets.filter(d => ts.contains(d.otype)))
    // 3D location estimation (§6.3): geometry when every type of interest
    // touches the ground, the ML depth model otherwise.
    val geom   = plan.flags.geomApplied
    val dets3d = typed.map(d => if (geom) Estimators.geomOne(d) else Estimators.mlOne(d))
    val depthDets = if (geom) dets3d.filter(_.method == "geom_fallback") else dets3d

    // Exit Frame Sampler (§6.4): restrict the tracker to sampled frames.
    val trackerInput = plan.efs.fold(dets3d) { case (lanes, inters, fps) =>
      val sampled = ExitFrameSampler.sampleScene(kept, dets3d.groupBy(_.frameIdx), lanes, inters, fps).toSet
      dets3d.filter(d => sampled.contains(d.frameIdx))
    }

    // Object tracker — only when the predicate needs trajectories. Its
    // pair cost counts n_t·n_{t−1} over consecutive frames with detections.
    val (rows, perFrame) =
      if (plan.flags.trackerRan) {
        val n = trackerInput.groupBy(_.frameIdx).toVector.sortBy(_._1).map(_._2.size.toLong)
        (SortTracker.trackScene(trackerInput), n)
      } else
        (dets3d.map(d => TrackedRow(d.sceneId, d.frameIdx, d.did, d.did, d.oid, d.otype, d.estX, d.estY)),
         Vector.empty)

    SceneOut(kept.map(f => (f.sceneId, f.frameIdx)), withFacts(rows), plan.flags.copy(
      framesTotal = frames.size, framesAfterRvp = kept.size,
      detections = dets.size, detsAfterOtp = typed.size,
      depthFrames = depthDets.map(_.frameIdx).distinct.size,
      geomDets = if (geom) dets3d.count(_.method == "geom") else 0,
      trackerFrames = perFrame.size, trackerDets = perFrame.sum,
      trackerPairOps = perFrame.zip(perFrame.drop(1)).map { case (a, b) => a * b }.sum))
  }

  /** Attach the query engine's facts to one scene's rows, keeping their
    * order. Over each track in frame order: the heading (degrees CCW from
    * +x) of the displacement from `HeadingLag` samples back, if at least
    * `MinHeadingDistM`; `turnleft` when the net heading change, summing
    * steps under 60°, reaches `TurnLeftMinDeg`; `stopped` when the track's
    * bounding box diagonal is under `StoppedMaxDispM` over at least
    * `StoppedMinSamples` samples. `nFrame` is the frame's sample count.
    * The arithmetic is that of the equivalent Spark SQL expressions.
    */
  private[core] def withFacts(rows: Vector[TrackedRow]): Vector[ObjSample] = {
    val heading  = Array.fill(rows.size)(Double.NaN)
    val turnleft = new Array[Boolean](rows.size)
    val stopped  = new Array[Boolean](rows.size)
    val nFrame   = rows.groupMapReduce(_.frameIdx)(_ => 1)(_ + _)
    rows.indices.groupBy(rows(_).trackId).valuesIterator.foreach { idx =>
      val t = idx.sortBy(rows(_).frameIdx)
      var netTurn = 0.0
      var prev    = Double.NaN
      t.indices.foreach { j =>
        val r = rows(t(j))
        if (j >= HeadingLag) {
          val p  = rows(t(j - HeadingLag))
          val dx = r.estX - p.estX
          val dy = r.estY - p.estY
          if (math.sqrt(StrictMath.pow(dx, 2) + StrictMath.pow(dy, 2)) >= MinHeadingDistM)
            heading(t(j)) = Heading.canon(math.toDegrees(math.atan2(dy + 0.0, dx + 0.0)))
        }
        val h = heading(t(j))
        if (!h.isNaN && !prev.isNaN) {
          val step = Heading.canon(h - prev + 540.0) - 180.0
          if (math.abs(step) < 60.0) netTurn += step
        }
        prev = h
      }
      val xs = t.map(rows(_).estX); val ys = t.map(rows(_).estY)
      val dx = xs.max - xs.min;     val dy = ys.max - ys.min
      val isStopped = math.sqrt(StrictMath.pow(dx, 2) + StrictMath.pow(dy, 2)) < StoppedMaxDispM &&
        t.size >= StoppedMinSamples
      t.foreach { i => turnleft(i) = netTurn >= TurnLeftMinDeg; stopped(i) = isStopped }
    }
    rows.indices.map { i =>
      val r = rows(i)
      ObjSample(r.sceneId, r.frameIdx, r.trackId, r.did, r.oid, r.otype, r.estX, r.estY,
                heading(i), turnleft(i), stopped(i), nFrame(r.frameIdx))
    }.toVector
  }
}
