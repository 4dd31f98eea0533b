package perfbench

import scala.collection.mutable

import org.apache.spark.{PerfbenchBus, SparkContext}
import org.apache.spark.scheduler._

/** Spark work attributed to one job group, i.e. to one layer call. */
final case class GroupWork(jobs: Int, stages: Int, tasks: Int, busyMs: Double, shuffleMb: Double) {
  def +(o: GroupWork): GroupWork =
    GroupWork(jobs + o.jobs, stages + o.stages, tasks + o.tasks, busyMs + o.busyMs, shuffleMb + o.shuffleMb)
}

object GroupWork {
  val zero: GroupWork = GroupWork(0, 0, 0, 0.0, 0.0)
}

/** Counts jobs, submitted stages, finished tasks, task run time and
  * shuffle bytes written per job group. The benchmark sets a job group
  * before each layer call, so the counts of a group are that layer's
  * Spark work.
  */
final class GroupListener(sc: SparkContext) extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val acc        = mutable.Map.empty[String, GroupWork]

  private def group(p: java.util.Properties): Option[String] =
    Option(p).flatMap(ps => Option(ps.getProperty("spark.jobGroup.id")))

  private def add(g: String, w: GroupWork): Unit = synchronized {
    acc(g) = acc.getOrElse(g, GroupWork.zero) + w
  }

  override def onJobStart(e: SparkListenerJobStart): Unit =
    group(e.properties).foreach(add(_, GroupWork(1, 0, 0, 0.0, 0.0)))

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    group(e.properties).foreach { g =>
      synchronized { stageGroup(e.stageInfo.stageId) = g }
      add(g, GroupWork(0, 1, 0, 0.0, 0.0))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    synchronized(stageGroup.get(e.stageId)).foreach { g =>
      val shuffle = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
      add(g, GroupWork(0, 0, 1, e.taskInfo.duration.toDouble, shuffle / 1048576.0))
    }

  /** The work of `group` once every event posted so far is delivered. */
  def take(group: String): GroupWork = {
    PerfbenchBus.drain(sc)
    synchronized(acc.remove(group).getOrElse(GroupWork.zero))
  }
}

/** One layer call: name, start and end (ms since the run began), the span
  * that contains it (-1 for none) and the workflow it belongs to.
  */
final case class Span(id: Int, parent: Int, workflow: Int, name: String, startMs: Double, endMs: Double) {
  def ms: Double = endMs - startMs
}

/** Records spans in memory; they are written out when the run ends. */
final class Tracer(t0Nanos: Long) {
  private val recorded = mutable.ArrayBuffer.empty[Span]
  private var open     = List.empty[Int]

  private def now: Double = (System.nanoTime() - t0Nanos) / 1e6

  def span[A](name: String, workflow: Int)(body: => A): A = {
    val id     = recorded.size
    val parent = open.headOption.getOrElse(-1)
    val start  = now
    recorded += Span(id, parent, workflow, name, start, start)
    open = id :: open
    try body
    finally {
      open = open.tail
      recorded(id) = recorded(id).copy(endMs = now)
    }
  }

  def spans: Seq[Span] = recorded.toSeq

  /** A span's duration minus the part of it its child spans cover. */
  def selfMs(s: Span): Double = {
    val kids = recorded.filter(_.parent == s.id).map(k => (k.startMs, k.endMs)).sortBy(_._1)
    var covered = 0.0
    var end     = s.startMs
    kids.foreach { case (a, b) =>
      val lo = math.max(a, end)
      if (b > lo) { covered += b - lo; end = b }
    }
    s.ms - covered
  }
}
